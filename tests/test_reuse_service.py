"""Service-level evaluation economy, audit persistence, registry weights.

* a ``mode="compress"`` session tunes on the compressed mix,
  stage-verifies before recommending, and leaves ``compressed``/
  ``verified`` audit events plus a ``best_config`` in the registry
  metadata;
* a ``mode="refine"`` session bootstraps from the service's history
  store (fed by the first session) and audits ``history-bootstrap``;
* `HistoryStore.from_audit` rebuilds the corpus from the *real* audit
  JSONL the service wrote;
* `AuditLog` keeps one persistent append handle, flushes per emit, and
  releases it via ``close()`` / the context manager;
* `ModelRegistry` distance weighting is configurable per component.
"""

import json

import pytest

from repro.core.tuner import CDBTune
from repro.dbsim.hardware import CDB_A, CDB_B, CDB_C
from repro.dbsim.workload import get_workload
from repro.reuse import HistoryStore, WorkloadMix
from repro.service import (
    AuditLog,
    ModelRegistry,
    SessionState,
    TuningRequest,
    TuningService,
)

TRAIN_KWARGS = {"probe_every": 1000, "episode_length": 6,
                "warmup_steps": 4, "stop_on_convergence": False}


def _tiny_tuner(request):
    return CDBTune(seed=request.seed, noise=request.noise,
                   actor_hidden=(16, 16), critic_hidden=(16, 16),
                   critic_branch_width=8, batch_size=8,
                   prioritized_replay=False)


def _mix():
    return WorkloadMix.weighted("blend", [
        (get_workload("sysbench-rw"), 0.6),
        (get_workload("sysbench-ro"), 0.3),
        (get_workload("tpcc"), 0.1),
    ])


def _request(workload, **overrides):
    kwargs = dict(hardware=CDB_A, workload=workload, train_steps=12,
                  tune_steps=2, seed=5, noise=0.0,
                  train_kwargs=dict(TRAIN_KWARGS))
    kwargs.update(overrides)
    return TuningRequest(**kwargs)


def _service(tmp_path, **overrides):
    kwargs = dict(registry=ModelRegistry(tmp_path / "registry"),
                  audit=AuditLog(tmp_path / "audit.jsonl"),
                  workers=1, tuner_factory=_tiny_tuner)
    kwargs.update(overrides)
    return TuningService(**kwargs)


class TestCompressedSession:
    def test_end_to_end(self, tmp_path):
        service = _service(tmp_path)
        with service:
            session = service.wait(service.submit(_request(
                _mix(), mode="compress")), timeout=600)
        assert session.state == SessionState.DEPLOYED
        status = session.status()
        assert status["compression"]["components_kept"] == 1
        assert status["compression"]["components_total"] == 3
        assert status["compression"]["ratio"] == pytest.approx(1 / 3)
        verification = status["verification"]
        assert verification["promoted"] <= 3
        assert verification["full_evaluations"] == verification["promoted"]

        events = {e["event"] for e in service.audit.events(session.id)}
        assert {"queued", "compressed", "verified", "recommended",
                "deployed"} <= events
        compressed = service.audit.events(session.id, "compressed")[0]
        assert compressed["components_kept"] == 1
        # the verified winner is what got recommended and canaried
        verified = service.audit.events(session.id, "verified")[0]
        recommended = service.audit.events(session.id, "recommended")[0]
        if verified["verified"]:
            assert recommended["best_throughput"] == pytest.approx(
                verified["winner_throughput"])

    def test_registry_metadata_carries_best_config(self, tmp_path):
        service = _service(tmp_path)
        with service:
            session = service.wait(service.submit(_request(
                _mix(), mode="compress")), timeout=600)
        assert session.state == SessionState.DEPLOYED
        entry = service.registry.entries()[-1]
        best_config = entry.metadata["best_config"]
        assert isinstance(best_config, dict) and best_config
        # registry metadata is the second mining source for history reuse
        mined = HistoryStore.from_registry(service.registry)
        assert len(mined) == 1
        assert mined.records()[0].config.keys() == best_config.keys()

    def test_plain_spec_request_can_compress(self, tmp_path):
        """`mode="compress"` on a plain workload wraps it as a 1-mix
        (no-op), and there is nothing to verify."""
        service = _service(tmp_path)
        with service:
            session = service.wait(service.submit(_request(
                "sysbench-rw", mode="compress")), timeout=600)
        assert session.state == SessionState.DEPLOYED
        assert session.status()["compression"]["components_kept"] == 1
        assert "verification" not in session.status()


class TestHistoryReuseSession:
    def test_second_tenant_bootstraps_from_first(self, tmp_path):
        service = _service(tmp_path)
        with service:
            first = service.wait(service.submit(_request(_mix(), seed=5)),
                                 timeout=600)
            assert first.state == SessionState.DEPLOYED
            assert len(service.history) > 0     # sessions feed the store
            second = service.wait(service.submit(_request(
                _mix(), seed=6, mode="refine")), timeout=600)
        assert second.state == SessionState.DEPLOYED
        boot = second.status()["history_bootstrap"]
        assert boot["warmup_seeds"] >= 1
        assert boot["replay_seeds"] >= 1
        assert boot["nearest_distance"] == pytest.approx(0.0)
        events = {e["event"] for e in service.audit.events(second.id)}
        assert "history-bootstrap" in events
        # the first (cold) session must not carry bootstrap provenance
        assert "history_bootstrap" not in first.status()

    def test_cold_store_bootstrap_is_a_noop(self, tmp_path):
        service = _service(tmp_path)
        with service:
            session = service.wait(service.submit(_request(
                "sysbench-rw", mode="refine")), timeout=600)
        assert session.state == SessionState.DEPLOYED
        boot = session.status()["history_bootstrap"]
        assert boot["warmup_seeds"] == 0
        assert boot["replay_seeds"] == 0

    def test_history_store_rebuilds_from_real_audit_jsonl(self, tmp_path):
        service = _service(tmp_path)
        with service:
            session = service.wait(service.submit(_request(_mix())),
                                   timeout=600)
        assert session.state == SessionState.DEPLOYED
        service.audit.close()

        mined = HistoryStore.from_audit(tmp_path / "audit.jsonl")
        assert len(mined) == len(session.tuning.records)
        queued = [json.loads(line)
                  for line in open(tmp_path / "audit.jsonl")
                  if '"queued"' in line][0]
        for record in mined:
            assert record.signature == queued["signature"]
            assert record.config                       # real knob values
        # mined records are actionable: they produce warmup seeds
        tuner = CDBTune(seed=0)
        seeds = mined.probe_seeds(_mix().signature(), tuner.registry, k=4)
        assert seeds.shape[0] >= 1

    def test_history_store_skips_a_torn_audit_line(self, tmp_path):
        """A SIGKILLed shard can leave a torn line that other writers then
        append after; mining skips it, as crash recovery does."""
        service = _service(tmp_path)
        with service:
            session = service.wait(service.submit(_request(_mix())),
                                   timeout=600)
        service.audit.close()
        path = tmp_path / "audit.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(1, '{"session": "s9", "event": "que\n')
        path.write_text("".join(lines))
        assert len(AuditLog.read_jsonl(path)) == len(lines) - 1
        mined = HistoryStore.from_audit(path)
        assert len(mined) == len(session.tuning.records)


class TestAuditLogPersistence:
    def test_keeps_one_append_handle_and_flushes(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        log.emit("s1", "queued")
        fd = log._fd
        assert fd is not None
        log.emit("s1", "started")
        assert log._fd == fd                       # not reopened per emit
        # one O_APPEND write per emit: durable without close()
        assert len(AuditLog.read_jsonl(path)) == 2

    def test_close_releases_and_emit_reopens(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        log = AuditLog(path)
        log.emit("s1", "queued")
        log.close()
        assert log._fd is None
        log.close()                                # idempotent
        log.emit("s1", "deployed")
        assert log._fd is not None
        log.close()
        records = AuditLog.read_jsonl(path)
        assert [r["event"] for r in records] == ["queued", "deployed"]

    def test_context_manager(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            log.emit("s1", "queued")
            assert log._fd is not None
        assert log._fd is None
        assert len(AuditLog.read_jsonl(path)) == 1

    def test_memory_only_log_has_no_handle(self):
        with AuditLog() as log:
            log.emit("s1", "queued")
            assert log._fd is None
        assert len(log) == 1

    def test_read_jsonl_skips_torn_tail(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditLog(path) as log:
            log.emit("s1", "queued")
            log.emit("s1", "deployed")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"session": "s2", "event": "que')  # torn by SIGKILL
        records = AuditLog.read_jsonl(path)
        assert [r["event"] for r in records] == ["queued", "deployed"]
        with pytest.raises(json.JSONDecodeError):
            AuditLog.read_jsonl(path, strict=True)


class TestRegistryDistanceWeights:
    def _registry(self, tmp_path, **weights):
        registry = ModelRegistry(tmp_path / "registry", **weights)
        tuner = CDBTune(seed=1, noise=0.0, actor_hidden=(16, 16),
                        critic_hidden=(16, 16), critic_branch_width=8,
                        batch_size=8, prioritized_replay=False)
        registry.register(tuner, get_workload("sysbench-rw"), CDB_A,
                          train_steps=10)
        return registry

    def test_distance_components_are_unweighted(self, tmp_path):
        registry = self._registry(tmp_path, workload_weight=5.0,
                                  hardware_weight=7.0)
        entry = registry.entries()[0]
        workload_dist, hardware_dist = registry.distance_components(
            entry, get_workload("tpch"), CDB_B)
        assert workload_dist > 0 and hardware_dist > 0
        assert registry.distance(entry, get_workload("tpch"), CDB_B) == \
            pytest.approx(5.0 * workload_dist + 7.0 * hardware_dist)

    def test_zero_workload_weight_ignores_workload_mismatch(self, tmp_path):
        registry = self._registry(tmp_path, workload_weight=0.0,
                                  hardware_weight=1.0)
        entry = registry.entries()[0]
        # same hardware, wildly different workload: distance collapses to 0
        assert registry.distance(entry, get_workload("tpch"), CDB_A) == \
            pytest.approx(0.0)
        match = registry.find_nearest(get_workload("tpch"), CDB_A)
        assert match is not None and match[1] == pytest.approx(0.0)

    def test_invalid_weights_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ModelRegistry(tmp_path / "r1", workload_weight=-1.0)
        with pytest.raises(ValueError):
            ModelRegistry(tmp_path / "r2", workload_weight=0.0,
                          hardware_weight=0.0)

    def test_weighting_flips_the_nearest_match(self, tmp_path):
        tuner = CDBTune(seed=1, noise=0.0, actor_hidden=(16, 16),
                        critic_hidden=(16, 16), critic_branch_width=8,
                        batch_size=8, prioritized_replay=False)
        request_workload, request_hardware = get_workload("sysbench-rw"), CDB_A
        entries = [(get_workload("sysbench-rw"), CDB_C),   # right workload
                   (get_workload("tpch"), CDB_A)]          # right hardware
        workload_first = ModelRegistry(tmp_path / "wl", workload_weight=10.0,
                                       hardware_weight=0.1)
        hardware_first = ModelRegistry(tmp_path / "hw", workload_weight=0.1,
                                       hardware_weight=10.0)
        for registry in (workload_first, hardware_first):
            for workload, hardware in entries:
                registry.register(tuner, workload, hardware, train_steps=10)
        match = workload_first.find_nearest(request_workload, request_hardware)
        assert match[0].workload_name == "sysbench-rw"
        match = hardware_first.find_nearest(request_workload, request_hardware)
        assert match[0].hardware["name"] == CDB_A.name
