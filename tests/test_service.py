"""Multi-tenant tuning service: registry, safety guard, audit, sessions.

Covers the acceptance scenarios of the service subsystem:

* two concurrent tenant sessions run to completion and are deterministic
  under a fixed seed;
* a second session with a matching workload signature warm-starts from
  the registry with at most half the cold-start budget and still reaches
  the first session's best performance;
* the safety guard blocks a provably crashing configuration
  (``innodb_log_file_size × innodb_log_files_in_group`` beyond the disk
  threshold) and rollback restores the previously deployed config.
"""

import errno
import json
import os
import threading
import time
import tracemalloc
from dataclasses import asdict

import pytest

import repro.service.registry as registry_module
from repro.core.tuner import CDBTune
from repro.dbsim.engine import SimulatedDatabase
from repro.dbsim.hardware import CDB_A, CDB_B, CDB_C
from repro.dbsim.workload import get_workload, signature_distance
from repro.reuse.mix import WorkloadMix
from repro.service import (
    SLA,
    AuditLog,
    ModelRegistry,
    SafetyGuard,
    SessionState,
    TuningRequest,
    TuningService,
    hardware_distance,
)

GIB = 1024 ** 3

#: Redo log group of 1.6 TB on CDB-A's 100 GB disk — the §5.2.3 crash
#: region, and the configuration the guard must never deploy.
LETHAL_LOG_CONFIG = {"innodb_log_file_size": 16 * GIB,
                     "innodb_log_files_in_group": 100}

#: Small, fast training budget shared by the service tests.
TRAIN_KWARGS = {"probe_every": 1000, "episode_length": 6,
                "warmup_steps": 4, "stop_on_convergence": False}


def _request(workload="sysbench-rw", hardware=CDB_A, **overrides):
    kwargs = dict(hardware=hardware, workload=workload, train_steps=12,
                  tune_steps=2, seed=5, noise=0.0,
                  train_kwargs=dict(TRAIN_KWARGS))
    kwargs.update(overrides)
    return TuningRequest(**kwargs)


def _tiny_tuner(request):
    return CDBTune(seed=request.seed, noise=request.noise,
                   actor_hidden=(16, 16), critic_hidden=(16, 16),
                   critic_branch_width=8, batch_size=8,
                   prioritized_replay=False)


def _service(tmp_path=None, **overrides):
    registry = None
    if tmp_path is not None:
        registry = ModelRegistry(tmp_path / "registry")
    kwargs = dict(registry=registry, workers=2,
                  tuner_factory=_tiny_tuner)
    kwargs.update(overrides)
    return TuningService(**kwargs)


# ---------------------------------------------------------------------------
# Model registry
# ---------------------------------------------------------------------------
class TestModelRegistry:
    def _trained(self, seed=5, steps=10):
        tuner = _tiny_tuner(_request(seed=seed))
        tuner.offline_train(CDB_A, "sysbench-rw", max_steps=steps,
                            **TRAIN_KWARGS)
        return tuner

    def test_register_and_reload_roundtrip(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        tuner = self._trained()
        entry = registry.register(tuner, get_workload("sysbench-rw"), CDB_A,
                                  train_steps=10, best_throughput=123.0)
        assert len(registry) == 1
        assert entry.model_id.startswith("sysbench-rw-CDB-A-")
        # A brand-new registry instance rebuilds the index from disk.
        reopened = ModelRegistry(tmp_path)
        assert [e.model_id for e in reopened.entries()] == [entry.model_id]
        clone = _tiny_tuner(_request())
        reopened.load_into(clone, reopened.entries()[0])
        assert clone.trained
        assert clone.agent.best_known_action is not None

    def test_find_nearest_prefers_same_workload_and_hardware(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        tuner = self._trained()
        far = registry.register(tuner, get_workload("tpcc"), CDB_C)
        near = registry.register(tuner, get_workload("sysbench-rw"), CDB_A)
        match = registry.find_nearest(get_workload("sysbench-rw"), CDB_A)
        assert match is not None
        entry, distance = match
        assert entry.model_id == near.model_id != far.model_id
        assert distance == 0.0

    def test_max_distance_excludes_different_workload(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.register(self._trained(), get_workload("tpcc"), CDB_A)
        match = registry.find_nearest(get_workload("sysbench-rw"), CDB_A,
                                      max_distance=0.35)
        assert match is None
        # Without the cutoff the entry is still reachable.
        assert registry.find_nearest(get_workload("sysbench-rw"),
                                     CDB_A) is not None

    def test_dimension_filter(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        entry = registry.register(self._trained(),
                                  get_workload("sysbench-rw"), CDB_A)
        assert registry.find_nearest(
            get_workload("sysbench-rw"), CDB_A,
            state_dim=entry.state_dim + 1) is None
        assert registry.find_nearest(
            get_workload("sysbench-rw"), CDB_A,
            action_dim=entry.action_dim + 1) is None
        assert registry.find_nearest(
            get_workload("sysbench-rw"), CDB_A,
            state_dim=entry.state_dim,
            action_dim=entry.action_dim) is not None

    @staticmethod
    def _index(registry):
        with open(os.path.join(registry.root, "index.json"),
                  encoding="utf-8") as handle:
            return json.load(handle)

    def test_index_lists_entries_after_fresh_and_reopened_registers(
            self, tmp_path):
        tuner = self._trained()
        registry = ModelRegistry(tmp_path)
        registry.register(tuner, get_workload("sysbench-rw"), CDB_A,
                          train_steps=10, best_throughput=123.0,
                          metadata={"best_config": {"innodb_io_capacity":
                                                    400, "sort": 1.5}})
        registry.register(tuner, get_workload("tpcc"), CDB_B,
                          parent=registry.entries()[0].model_id)
        assert self._index(registry) == {
            "version": 1,
            "entries": [asdict(e) for e in registry.entries()]}
        # A reopened registry encodes the loaded entries itself.
        reopened = ModelRegistry(tmp_path)
        reopened.register(tuner, get_workload("ycsb"), CDB_C)
        assert len(reopened) == 3
        assert self._index(reopened) == {
            "version": 1,
            "entries": [asdict(e) for e in reopened.entries()]}
        assert ModelRegistry(tmp_path).entries() == reopened.entries()

    def test_indented_index_loads_and_survives_register(self, tmp_path):
        tuner = self._trained()
        seeded = ModelRegistry(tmp_path)
        for name in ("sysbench-rw", "tpcc"):
            seeded.register(tuner, get_workload(name), CDB_A,
                            metadata={"session": name})
        # The layout earlier versions wrote: the whole index, indented.
        old = {"version": 1,
               "entries": [asdict(e) for e in seeded.entries()]}
        (tmp_path / "index.json").write_text(json.dumps(old, indent=1),
                                             encoding="utf-8")
        registry = ModelRegistry(tmp_path)
        assert registry.entries() == seeded.entries()
        added = registry.register(tuner, get_workload("ycsb"), CDB_A)
        assert self._index(registry) == {
            "version": 1, "entries": old["entries"] + [asdict(added)]}
        assert ModelRegistry(tmp_path).entries() == \
            seeded.entries() + [added]

    def test_register_encodes_only_the_new_entry(self, tmp_path,
                                                 monkeypatch):
        registry = ModelRegistry(tmp_path)
        tuner = self._trained()
        for name in ("sysbench-rw", "tpcc", "ycsb"):
            registry.register(tuner, get_workload(name), CDB_A)
        encoded = []

        def count(obj):
            # A whole index counts each of its entries.
            if isinstance(obj, dict) and "entries" in obj:
                encoded.extend(obj["entries"])
            else:
                encoded.append(obj)

        class CountingJson:
            load, loads = json.load, json.loads

            @staticmethod
            def dumps(obj, *args, **kwargs):
                count(obj)
                return json.dumps(obj, *args, **kwargs)

            @staticmethod
            def dump(obj, *args, **kwargs):
                count(obj)
                return json.dump(obj, *args, **kwargs)

        monkeypatch.setattr(registry_module, "json", CountingJson)
        added = registry.register(tuner, get_workload("tpch"), CDB_A)
        assert [e["model_id"] for e in encoded] == [added.model_id]
        assert len(self._index(registry)["entries"]) == 4

    def test_failed_index_write_leaves_no_half_registered_model(
            self, tmp_path, monkeypatch):
        registry = ModelRegistry(tmp_path)
        tuner = self._trained()
        kept = registry.register(tuner, get_workload("sysbench-rw"), CDB_A)
        models = sorted(os.listdir(tmp_path / "models"))
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == "index.json":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            registry.register(tuner, get_workload("tpcc"), CDB_A)
        monkeypatch.undo()
        assert len(registry) == 1
        assert sorted(os.listdir(tmp_path / "models")) == models
        assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp")]
        assert registry.find_nearest(get_workload("tpcc"),
                                     CDB_A)[0] == kept
        assert ModelRegistry(tmp_path).entries() == [kept]
        # The registry stays usable once the disk recovers.
        added = registry.register(tuner, get_workload("tpcc"), CDB_A)
        assert ModelRegistry(tmp_path).entries() == [kept, added]

    @pytest.mark.parametrize("request_workload", [
        get_workload("tpcc"),
        WorkloadMix.weighted("rw-tpcc", [("sysbench-rw", 0.7),
                                         ("tpcc", 0.3)])],
        ids=["spec", "mix"])
    def test_find_nearest_computes_request_signature_once(
            self, tmp_path, monkeypatch, request_workload):
        registry = ModelRegistry(tmp_path, workload_weight=1.5,
                                 hardware_weight=0.5)
        tuner = self._trained()
        for name, hardware in (("sysbench-rw", CDB_A), ("tpcc", CDB_C),
                               ("ycsb", CDB_B)):
            registry.register(tuner, get_workload(name), hardware)
        cls = type(request_workload)
        real_signature = cls.signature
        calls = []

        def signature(self):
            calls.append(self)
            return real_signature(self)

        monkeypatch.setattr(cls, "signature", signature)
        entry, distance = registry.find_nearest(request_workload, CDB_B)
        assert len(calls) == 1
        monkeypatch.undo()
        # Same match and bit-identical distance as the public method.
        expected = min(registry.entries(), key=lambda e: registry.distance(
            e, request_workload, CDB_B))
        assert entry == expected
        assert distance == registry.distance(entry, request_workload,
                                             CDB_B)

    def test_signature_and_hardware_distances(self):
        rw = get_workload("sysbench-rw")
        assert signature_distance(rw.signature(), rw.signature()) == 0.0
        assert signature_distance(rw.signature(),
                                  get_workload("tpcc").signature()) > 0.35
        assert hardware_distance(CDB_A, CDB_A) == 0.0
        # CDB-B only resizes RAM relative to CDB-A: a small step.
        assert 0.0 < hardware_distance(CDB_A, CDB_B) < 0.35


# ---------------------------------------------------------------------------
# Safety guard
# ---------------------------------------------------------------------------
class TestSafetyGuard:
    def _database(self):
        return SimulatedDatabase(CDB_A, get_workload("sysbench-rw"),
                                 noise=0.0, seed=0)

    def test_blocks_crashing_log_configuration(self):
        """16 GiB × 100 redo log files exceed CDB-A's 100 GB disk: the
        exact §5.2.3 crash region the guard exists to catch."""
        guard = SafetyGuard()
        database = self._database()
        lethal = dict(database.default_config())
        lethal.update(LETHAL_LOG_CONFIG)
        verdict = guard.canary(database, lethal)
        assert not verdict.accepted
        assert verdict.reason == "crash"
        assert verdict.candidate is None
        with pytest.raises(ValueError, match="rejected"):
            guard.deploy("tenant", lethal, verdict)
        assert guard.deployed_config("tenant") is None

    def test_blocks_sla_throughput_regression(self):
        guard = SafetyGuard(SLA(max_throughput_drop=0.05))
        database = self._database()
        bad = dict(database.default_config())
        bad["innodb_thread_concurrency"] = 1   # ~-50% throughput
        verdict = guard.canary(database, bad)
        assert not verdict.accepted
        assert verdict.reason == "throughput-regression"
        assert (verdict.candidate.throughput
                < 0.95 * verdict.baseline.throughput)

    def test_accepts_baseline_equivalent_config(self):
        guard = SafetyGuard()
        database = self._database()
        verdict = guard.canary(database, database.default_config())
        assert verdict.accepted
        assert verdict.reason == "ok"
        assert guard.decisions == [verdict]

    def test_rollback_restores_previous_config(self):
        guard = SafetyGuard()
        database = self._database()
        first = dict(database.default_config())
        second = dict(first)
        second["innodb_buffer_pool_size"] = 2 * first["innodb_buffer_pool_size"]
        guard.seed_baseline("t", first)
        verdict = guard.canary(database, second, baseline_config=first)
        assert verdict.accepted
        guard.deploy("t", second, verdict)
        assert guard.deployed_config("t") == second
        restored = guard.rollback("t")
        assert restored == first == guard.deployed_config("t")

    def test_rollback_without_history_raises(self):
        guard = SafetyGuard()
        with pytest.raises(RuntimeError, match="no earlier deployment"):
            guard.rollback("nobody")
        guard.seed_baseline("t", {"a": 1.0})
        with pytest.raises(RuntimeError, match="no earlier deployment"):
            guard.rollback("t")

    def test_sla_validation(self):
        with pytest.raises(ValueError):
            SLA(max_throughput_drop=1.0)
        with pytest.raises(ValueError):
            SLA(max_latency_increase=-0.1)


# ---------------------------------------------------------------------------
# Audit log
# ---------------------------------------------------------------------------
class TestAuditLog:
    def test_jsonl_persistence_and_filters(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path=path)
        log.emit("s1", "queued", tenant="a")
        log.emit("s2", "queued", tenant="b")
        log.emit("s1", "deployed")
        assert len(log) == 3
        assert [r["event"] for r in log.events(session_id="s1")] == [
            "queued", "deployed"]
        assert [r["session"] for r in log.events(event="queued")] == [
            "s1", "s2"]
        records = AuditLog.read_jsonl(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert records[0]["tenant"] == "a"
        # Each line is standalone JSON.
        lines = path.read_text().strip().splitlines()
        assert all(json.loads(line)["session"] for line in lines)

    def test_short_writes_still_emit_whole_records(self, tmp_path,
                                                   monkeypatch):
        """``os.write`` may land fewer bytes than asked (signal, disk
        pressure); a torn half-line would be silently dropped by
        ``read_jsonl`` on crash-recovery replay, so ``emit`` must keep
        writing until the record is out whole."""
        import repro.service.audit as audit_mod

        path = tmp_path / "audit.jsonl"
        real_write = os.write
        monkeypatch.setattr(audit_mod.os, "write",
                            lambda fd, data: real_write(fd, data[:3]))
        log = AuditLog(path=path)
        log.emit("s1", "queued", tenant="a", payload=list(range(8)))
        log.emit("s2", "deployed")
        log.close()
        records = AuditLog.read_jsonl(path, strict=True)
        assert [r["session"] for r in records] == ["s1", "s2"]
        assert records[0]["payload"] == list(range(8))

    def test_source_labels_interleaved_writers(self, tmp_path):
        """Sharded runs: every process restarts ``seq`` at 0, so records
        carry a ``src`` label to keep the per-writer streams apart —
        global order across writers is file position, not ``seq``."""
        path = tmp_path / "audit.jsonl"
        parent = AuditLog(path=path, source="parent")
        shard = AuditLog(path=path, source="shard0")
        parent.emit("s1", "shard-accepted")
        shard.emit("s1", "queued")
        shard.emit("s1", "session-report")
        parent.emit("s2", "shard-accepted")
        parent.close()
        shard.close()
        per_src = {}
        for record in AuditLog.read_jsonl(path, strict=True):
            per_src.setdefault(record["src"], []).append(record["seq"])
        assert per_src == {"parent": [0, 1], "shard0": [0, 1]}
        # Unlabelled logs keep the original record shape.
        assert "src" not in AuditLog().emit("s1", "queued")

    def test_file_backed_log_reads_its_file(self, tmp_path):
        """With a path the file is the log: ``events()`` and ``len()``
        read it, so they see every writer's records, and a new log on
        the file sees what an earlier one wrote."""
        path = tmp_path / "audit.jsonl"
        parent = AuditLog(path=path, source="parent")
        shard = AuditLog(path=path, source="shard0")
        assert len(parent) == 0 and parent.events() == []
        parent.emit("s1", "shard-accepted")
        shard.emit("s1", "queued")
        assert [(r["src"], r["event"]) for r in parent.events()] == [
            ("parent", "shard-accepted"), ("shard0", "queued")]
        assert len(shard) == 2
        parent.close()
        shard.close()
        assert [r["event"] for r in AuditLog(path=path)] == [
            "shard-accepted", "queued"]

    def test_file_backed_log_keeps_no_copy_in_memory(self, tmp_path):
        log = AuditLog(path=tmp_path / "audit.jsonl")
        report = {"rewards": [float(i) for i in range(1000)]}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(50):
                log.emit(f"s{index}", "session-report", report=report)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            log.close()
        # 50 retained copies of the report would hold > 400 KB.
        assert grown < 100_000
        assert len(log) == 50


# ---------------------------------------------------------------------------
# Service end-to-end
# ---------------------------------------------------------------------------
class TestTuningServiceSessions:
    def _run_two_tenants(self, tmp_path, subdir):
        service = _service(tmp_path / subdir)
        sid_a = service.submit(_request("sysbench-rw", CDB_A, seed=5))
        sid_b = service.submit(_request("tpcc", CDB_C, seed=6))
        service.drain(timeout=300)
        service.shutdown()
        return service, service.status(sid_a), service.status(sid_b)

    def test_two_concurrent_tenants_complete(self, tmp_path):
        service, status_a, status_b = self._run_two_tenants(tmp_path, "run")
        for status in (status_a, status_b):
            assert status["state"] == SessionState.DEPLOYED
            assert status["deployed"] is True
            assert status["state_history"] == [
                "SUBMITTED", "WARMUP", "TRAINING", "RECOMMENDED", "DEPLOYED"]
            assert status["canary"]["accepted"] is True
        assert status_a["tenant"] == "sysbench-rw@CDB-A"
        assert status_b["tenant"] == "tpcc@CDB-C"
        # Both models registered, each tenant has a live config.
        assert len(service.registry) == 2
        assert service.guard.deployed_config("sysbench-rw@CDB-A") is not None
        assert service.guard.deployed_config("tpcc@CDB-C") is not None

    def test_concurrent_sessions_deterministic_under_fixed_seed(self, tmp_path):
        _, a1, b1 = self._run_two_tenants(tmp_path, "run1")
        _, a2, b2 = self._run_two_tenants(tmp_path, "run2")
        for first, second in ((a1, a2), (b1, b2)):
            assert first["best_throughput"] == second["best_throughput"]
            assert first["best_latency"] == second["best_latency"]
            assert first["model_id"] == second["model_id"]
            assert first["canary"] == second["canary"]

    def test_warm_start_half_budget_reaches_cold_best(self, tmp_path):
        service = _service(tmp_path)
        cold_id = service.submit(_request("sysbench-rw", CDB_A, seed=5))
        cold = service.wait(cold_id, timeout=300).status()
        assert cold["warm_started_from"] is None
        assert cold["train_budget"] == 12

        # Same workload on resized hardware: within warm-start range.
        warm_id = service.submit(_request("sysbench-rw", CDB_B, seed=5))
        warm = service.wait(warm_id, timeout=300).status()
        service.shutdown()
        assert warm["warm_started_from"] == cold["model_id"]
        assert warm["warm_start_distance"] == pytest.approx(
            hardware_distance(CDB_A, CDB_B))
        # ≤ half the cold budget, actually trained within it…
        assert warm["train_budget"] == 6 <= cold["train_budget"] // 2
        assert warm["train_steps_run"] <= warm["train_budget"]
        # …and no worse than the donor's best (best_known_action carries
        # the cold session's best configuration across the checkpoint).
        assert warm["best_throughput"] >= cold["best_throughput"]
        events = [r["event"] for r in service.audit.events(
            session_id=warm_id)]
        assert "warm-start" in events and "cold-start" not in events

    def test_warm_start_skips_distant_workload(self, tmp_path):
        service = _service(tmp_path)
        first = service.wait(
            service.submit(_request("sysbench-rw", CDB_A)), timeout=300)
        assert first.deployed
        other = service.wait(
            service.submit(_request("tpcc", CDB_C, seed=6)), timeout=300)
        service.shutdown()
        assert other.status()["warm_started_from"] is None
        assert other.status()["train_budget"] == 12

    def test_blocked_deployment_marks_session_failed(self, tmp_path):
        service = _service(tmp_path)
        rejected = service.guard.canary(
            SimulatedDatabase(CDB_A, get_workload("sysbench-rw"),
                              noise=0.0, seed=0),
            {**SimulatedDatabase(CDB_A, get_workload("sysbench-rw"),
                                 noise=0.0, seed=0).default_config(),
             **LETHAL_LOG_CONFIG})
        service.guard.canary = lambda *args, **kwargs: rejected
        sid = service.submit(_request())
        session = service.wait(sid, timeout=300)
        service.shutdown()
        assert session.state == SessionState.FAILED
        assert not session.deployed
        assert "canary rejected: crash" in session.error
        events = [r["event"] for r in service.audit.events(session_id=sid)]
        assert "deployment-blocked" in events and "deployed" not in events
        # The model is still registered as reusable knowledge.
        assert session.model_id is not None
        # The tenant stays on its seeded baseline.
        assert (service.guard.deployed_config("sysbench-rw@CDB-A")
                is not None)

    def test_priority_order_with_deferred_start(self):
        service = TuningService(workers=1, tuner_factory=_tiny_tuner,
                                autostart=False)
        low = service.submit(_request(priority=0, train_steps=4))
        high = service.submit(_request(priority=9, train_steps=4, seed=6))
        mid = service.submit(_request(priority=3, train_steps=4, seed=7))
        assert all(service.status(s)["state"] == SessionState.SUBMITTED
                   for s in (low, high, mid))
        service.start()
        service.drain(timeout=300)
        service.shutdown()
        started = [r["session"] for r in service.audit.events(
            event="started")]
        assert started == [high, mid, low]

    def test_shutdown_without_drain_cancels_queued(self):
        service = TuningService(workers=1, tuner_factory=_tiny_tuner,
                                autostart=False)
        queued = [service.submit(_request(train_steps=4, seed=i))
                  for i in range(3)]
        service.shutdown(drain=False)
        for sid in queued:
            status = service.status(sid)
            assert status["state"] == SessionState.FAILED
            assert status["error"] == "cancelled at shutdown"
        with pytest.raises(RuntimeError, match="shutting down"):
            service.submit(_request())

    def test_worker_exception_fails_session_only(self):
        def exploding_factory(request):
            raise RuntimeError("no capacity")

        service = TuningService(workers=1, tuner_factory=exploding_factory)
        session = service.wait(service.submit(_request()), timeout=60)
        assert session.state == SessionState.FAILED
        assert "no capacity" in session.error
        # The worker survives and serves the next session.
        service.tuner_factory = _tiny_tuner
        ok = service.wait(service.submit(_request(train_steps=4)),
                          timeout=300)
        service.shutdown()
        assert ok.state == SessionState.DEPLOYED

    def test_request_validation(self):
        with pytest.raises(ValueError, match="positive"):
            _request(train_steps=0)
        with pytest.raises(ValueError, match="unknown workload"):
            _request(workload="no-such-workload")
        # Rejected at construction, not later in a worker thread.
        with pytest.raises(ValueError, match="seed"):
            _request(seed=-3)
        with pytest.raises(ValueError, match="noise"):
            _request(noise=-1.0)
        with pytest.raises(TypeError, match="tenant"):
            _request(tenant=["x"])
        assert _request().tenant == "sysbench-rw@CDB-A"


# ---------------------------------------------------------------------------
# Concurrency regressions (PR 7): the bugs only load made visible
# ---------------------------------------------------------------------------
class ExplodingAudit(AuditLog):
    """Audit log whose ``session-report`` emission always fails."""

    def emit(self, session_id, event, **fields):
        if event == "session-report":
            raise OSError("disk full on the JSONL path")
        return super().emit(session_id, event, **fields)


class SlowQueuedAudit(AuditLog):
    """Audit log whose ``queued`` write stalls, like a slow disk."""

    def emit(self, session_id, event, **fields):
        if event == "queued":
            time.sleep(0.2)
        return super().emit(session_id, event, **fields)


class FailingQueuedAudit(AuditLog):
    """Audit log whose ``queued`` write always fails."""

    def emit(self, session_id, event, **fields):
        if event == "queued":
            raise OSError("disk full on the JSONL path")
        return super().emit(session_id, event, **fields)


class TestConcurrencyRegressions:
    def test_sessions_snapshot_survives_concurrent_submit(self):
        """``sessions()`` must not iterate the dict while submit mutates it.

        Pre-fix this raised ``RuntimeError: dictionary changed size during
        iteration`` — with ``autostart=False`` nothing consumes the queue,
        so every submit grows the dict under the reader's feet.
        """
        service = TuningService(workers=2, tuner_factory=_tiny_tuner,
                                autostart=False)
        errors = []
        stop = threading.Event()

        def submitter():
            try:
                for index in range(40):
                    service.submit(_request(tenant=f"t{index}"))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def reader():
            try:
                while not stop.is_set():
                    service.sessions()
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = ([threading.Thread(target=submitter) for _ in range(3)]
                   + [threading.Thread(target=reader) for _ in range(2)])
        for thread in threads[:3]:
            thread.start()
        for thread in threads[3:]:
            thread.start()
        for thread in threads[:3]:
            thread.join(60)
        stop.set()
        for thread in threads[3:]:
            thread.join(60)
        service.shutdown(drain=False)
        assert errors == []
        assert len(service.sessions()) == 120

    def test_audit_emit_failure_does_not_kill_worker(self):
        """A failing ``session-report`` emit must not shrink the pool.

        Pre-fix the emit sat outside the worker's try/except: the first
        finished session killed its worker thread and every queued
        session hung forever.
        """
        service = TuningService(workers=1, tuner_factory=_tiny_tuner,
                                audit=ExplodingAudit())
        first = service.wait(service.submit(_request(seed=1)), timeout=300)
        second = service.wait(service.submit(_request(seed=2)), timeout=300)
        assert first.state == SessionState.DEPLOYED
        assert second.state == SessionState.DEPLOYED
        assert service.workers_alive() == 1
        service.shutdown()

    def test_queued_is_audited_before_any_worker_event(self):
        """An idle worker must not audit a session ahead of its ``queued``
        record.  Pre-fix ``submit`` wrote ``queued`` after it had queued
        the session and woken the workers, so a slow write let the worker's
        ``started`` land first."""
        service = TuningService(workers=1, tuner_factory=_tiny_tuner,
                                audit=SlowQueuedAudit()).start()
        session = service.wait(service.submit(_request()), timeout=300)
        service.shutdown()
        events = [r["event"] for r in service.audit.events(session.id)]
        assert events[:2] == ["queued", "started"]

    def test_failed_queued_write_queues_nothing(self):
        service = TuningService(workers=1, tuner_factory=_tiny_tuner,
                                audit=FailingQueuedAudit(), autostart=False)
        with pytest.raises(OSError):
            service.submit(_request())
        assert service.queue_depth() == 0
        assert service.sessions() == []
        service.shutdown()

    def _registry_with_model(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        entry = registry.register(_tiny_tuner(_request()),
                                  get_workload("sysbench-rw"), CDB_A,
                                  train_steps=12)
        return registry, entry

    def test_missing_checkpoint_falls_back_to_cold_start(self, tmp_path):
        registry, entry = self._registry_with_model(tmp_path)
        os.remove(tmp_path / "registry" / entry.path)
        service = _service(workers=1, registry=registry)
        session = service.wait(service.submit(_request(train_steps=4)),
                               timeout=300)
        service.shutdown()
        assert session.state == SessionState.DEPLOYED
        assert session.warm_started_from is None
        assert session.train_budget == 4            # full budget, not half
        failed = service.audit.events(session.id, "warm-start-failed")
        assert len(failed) == 1
        assert entry.model_id in failed[0]["model"]
        # The cold start is audited after the failed warm start.
        assert service.audit.events(session.id, "cold-start")

    def test_corrupt_checkpoint_falls_back_to_cold_start(self, tmp_path):
        registry, entry = self._registry_with_model(tmp_path)
        with open(tmp_path / "registry" / entry.path, "wb") as handle:
            handle.write(b"this is not an npz archive")
        service = _service(workers=1, registry=registry)
        session = service.wait(service.submit(_request(train_steps=4)),
                               timeout=300)
        service.shutdown()
        assert session.state == SessionState.DEPLOYED
        assert session.warm_started_from is None
        assert session.train_budget == 4
        assert service.audit.events(session.id, "warm-start-failed")

    def test_seed_baseline_if_absent_is_atomic(self):
        """N racing seeders must leave exactly one stack-bottom baseline."""
        guard = SafetyGuard()
        barrier = threading.Barrier(16)
        seeded = []

        def seeder(index):
            barrier.wait()
            if guard.seed_baseline_if_absent("tenant", {"knob": float(index)}):
                seeded.append(index)

        threads = [threading.Thread(target=seeder, args=(i,))
                   for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        history = guard.history("tenant")
        assert len(seeded) == 1
        assert len(history) == 1
        assert history[0].verdict is None

    def test_shutdown_honors_one_overall_deadline(self):
        """N parked workers must not stretch ``timeout`` to N × timeout."""
        gate = threading.Event()

        def parked_factory(request):
            gate.wait(timeout=60)
            return _tiny_tuner(request)

        service = TuningService(workers=4, tuner_factory=parked_factory)
        try:
            for seed in range(4):
                service.submit(_request(seed=seed, train_steps=4))
            started = time.monotonic()
            service.shutdown(drain=True, timeout=0.5)
            elapsed = time.monotonic() - started
            # Pre-fix: 4 threads × 0.5 s = 2 s. One deadline: ~0.5 s.
            assert elapsed < 1.5
        finally:
            gate.set()
            service.shutdown(drain=True)

    def test_drain_honors_one_overall_deadline(self):
        """A backlog must not stretch ``drain(timeout)`` per session."""
        gate = threading.Event()

        def parked_factory(request):
            gate.wait(timeout=60)
            return _tiny_tuner(request)

        service = TuningService(workers=1, tuner_factory=parked_factory)
        try:
            for seed in range(5):
                service.submit(_request(seed=seed, train_steps=4))
            started = time.monotonic()
            with pytest.raises(TimeoutError, match="overall"):
                service.drain(timeout=0.4)
            elapsed = time.monotonic() - started
            # Pre-fix: up to 5 pending × 0.4 s. One deadline: ~0.4 s.
            assert elapsed < 1.2
        finally:
            gate.set()
            service.shutdown(drain=True)

    def test_session_eviction_honors_retention_bound(self):
        """Terminal records past ``session_retention`` are evicted, and
        their ids answer an ``EXPIRED`` marker instead of a 404-style
        :class:`KeyError` — a polling client must never conclude its
        acknowledged submission was lost."""
        service = TuningService(workers=1, tuner_factory=_tiny_tuner,
                                session_retention=2)
        ids = []
        for seed in range(4):
            sid = service.submit(_request(seed=seed, train_steps=4))
            service.wait(sid, timeout=300)
            ids.append(sid)
        service.shutdown()
        # The two oldest terminal sessions were evicted in order…
        assert service.session_count() == 2
        live = {s["id"] for s in service.sessions()}
        assert live == set(ids[2:])
        for sid in ids[:2]:
            status = service.status(sid)
            assert status == {"id": sid, "state": SessionState.EXPIRED,
                              "expired": True}
        # …the retained ones still report full status…
        for sid in ids[2:]:
            assert service.status(sid)["state"] == SessionState.DEPLOYED
        # …and a never-submitted id is still unknown, not expired.
        with pytest.raises(KeyError, match="unknown session"):
            service.status("s9999")

    def test_eviction_noop_while_under_retention_bound(self):
        """Fewer terminal sessions than the bound must evict nothing: a
        negative excess once sliced ``terminal[:-k]`` and silently
        expired nearly every retained record."""
        service = TuningService(workers=1, tuner_factory=_tiny_tuner,
                                session_retention=3)
        ids = []
        for seed in range(2):
            sid = service.submit(_request(seed=seed, train_steps=4))
            service.wait(sid, timeout=300)
            ids.append(sid)
        service.shutdown()
        assert service.session_count() == 2
        for sid in ids:
            assert service.status(sid)["state"] == SessionState.DEPLOYED

    def test_session_retention_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            TuningService(workers=1, session_retention=0)

    def test_same_tenant_concurrent_sessions_seed_one_baseline(self):
        """End to end: concurrent same-tenant sessions, one stack bottom."""
        service = TuningService(workers=4, tuner_factory=_tiny_tuner,
                                autostart=False)
        for seed in range(6):
            service.submit(_request(tenant="shared", seed=seed,
                                    train_steps=4))
        service.start()
        service.drain(timeout=300)
        service.shutdown()
        history = service.guard.history("shared")
        baselines = [record for record in history if record.verdict is None]
        assert len(baselines) == 1
        assert history[0].verdict is None          # and it is the bottom
        deployed = [record for record in history if record.verdict is not None]
        assert all(record.verdict.accepted for record in deployed)
