"""One-shot recommendation: features, model, corpus mining, service path.

Unit layers (codec, model, recommender) run on synthetic corpora; the
integration tests mine a *live* service audit trail back into a training
corpus and drive a ``mode="oneshot"`` session end to end through the
HTTP front door, asserting the acceptance shape: a completed one-shot
session's ``GET /v1/sessions/{id}`` carries a structured recommendation
with source provenance.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.tuner import CDBTune
from repro.dbsim.hardware import CDB_A, CDB_B
from repro.dbsim.mysql_knobs import mysql_registry
from repro.dbsim.workload import get_workload
from repro.oneshot import (
    FEATURE_VERSION,
    FeatureCodec,
    OneShotModel,
    OneShotRecommender,
)
from repro.reuse import HistoryStore
from repro.service import (
    AuditLog,
    Recommendation,
    SessionState,
    TuningRequest,
    TuningService,
)
from repro.service.frontdoor import ServiceFrontDoor, http_request
from repro.service.server import MODES

TRAIN_KWARGS = {"probe_every": 1000, "episode_length": 2,
                "warmup_steps": 1, "stop_on_convergence": False}


def _tiny_tuner(request):
    return CDBTune(seed=request.seed, noise=request.noise,
                   actor_hidden=(8, 8), critic_hidden=(8, 8),
                   critic_branch_width=4, batch_size=4,
                   prioritized_replay=False)


def _synthetic_corpus(registry, n=6, seed=0):
    rng = np.random.default_rng(seed)
    base = get_workload("sysbench-rw").signature()
    examples = []
    for index in range(n):
        action = np.clip(
            0.5 + 0.1 * rng.standard_normal(registry.n_tunable), 0.0, 1.0)
        examples.append({
            "signature": {k: float(v) + 0.01 * index
                          for k, v in base.items()},
            "config": registry.from_vector(action),
            "score": 100.0 + index,
            "hardware": "CDB-A",
        })
    return examples


def _trained_recommender(registry=None, **kwargs):
    registry = registry or mysql_registry()
    kwargs.setdefault("hidden", (8, 8))
    kwargs.setdefault("seed", 0)
    recommender = OneShotRecommender(registry, **kwargs)
    recommender.fit_corpus(_synthetic_corpus(registry), epochs=10,
                           batch_size=4)
    return recommender


# ---------------------------------------------------------------------------
# Feature codec
# ---------------------------------------------------------------------------
class TestFeatureCodec:
    def test_dimensions_and_blocks(self):
        codec = FeatureCodec()
        assert codec.dim == (codec.signature_dim + codec.hardware_dim
                             + codec.metrics_dim)
        signature = get_workload("sysbench-rw").signature()
        vec = codec.encode(signature, CDB_A, np.ones(63))
        assert vec.shape == (codec.dim,)
        assert np.all(np.isfinite(vec))
        # Presence flags: hardware and metrics blocks end with 1.0.
        assert vec[codec.signature_dim + codec.hardware_dim - 1] == 1.0
        assert vec[-1] == 1.0

    def test_missing_blocks_zero_filled_with_flag_down(self):
        codec = FeatureCodec()
        signature = get_workload("tpcc").signature()
        vec = codec.encode(signature)
        assert np.all(vec[codec.signature_dim:] == 0.0)

    def test_hardware_accepts_name_spec_and_mapping(self):
        codec = FeatureCodec()
        signature = get_workload("ycsb").signature()
        by_spec = codec.encode(signature, CDB_B)
        by_name = codec.encode(signature, "CDB-B")
        by_map = codec.encode(signature, {"name": "CDB-B",
                                          "ram_gb": CDB_B.ram_gb,
                                          "disk_gb": CDB_B.disk_gb,
                                          "cores": CDB_B.cores,
                                          "medium": CDB_B.medium})
        np.testing.assert_allclose(by_name, by_spec)
        np.testing.assert_allclose(by_map, by_spec)
        # Different hardware produces different features.
        assert not np.allclose(codec.encode(signature, CDB_A), by_spec)

    def test_malformed_metrics_are_ignored(self):
        codec = FeatureCodec()
        signature = get_workload("ycsb").signature()
        wrong_shape = codec.encode(signature, None, np.ones(7))
        has_nan = codec.encode(signature, None,
                               [float("nan")] + [1.0] * 62)
        clean = codec.encode(signature)
        np.testing.assert_allclose(wrong_shape, clean)
        np.testing.assert_allclose(has_nan, clean)

    def test_batch_matches_single(self):
        codec = FeatureCodec()
        rows = [{"signature": get_workload(name).signature(),
                 "hardware": "CDB-A", "metrics": None}
                for name in ("sysbench-ro", "tpcc")]
        batch = codec.encode_batch(rows)
        for row, vec in zip(rows, batch):
            np.testing.assert_allclose(
                codec.encode(row["signature"], row["hardware"]), vec)

    def test_version_guard(self):
        codec = FeatureCodec()
        state = codec.state_dict()
        assert int(state["version"]) == FEATURE_VERSION
        codec.check_state(state)                 # own state loads cleanly
        bad = dict(state, version=np.asarray(FEATURE_VERSION + 1))
        with pytest.raises(ValueError, match="feature layout"):
            codec.check_state(bad)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------
class TestOneShotModel:
    def test_fit_learns_and_predicts_in_range(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((12, 10))
        actions = np.clip(rng.random((12, 5)), 0.0, 1.0)
        scores = list(100.0 + 10.0 * rng.standard_normal(12))
        model = OneShotModel(10, 5, hidden=(16,), seed=0)
        assert not model.fitted
        result = model.fit(features, actions, scores, epochs=50,
                           batch_size=4)
        assert model.fitted
        assert result.examples == 12
        action, score = model.predict(features[0])
        assert action.shape == (5,)
        assert np.all((action >= 0.0) & (action <= 1.0))
        assert np.isfinite(score)
        # The reward head de-standardizes into the label's scale.
        assert 40.0 < score < 180.0

    def test_save_load_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((8, 6))
        actions = np.clip(rng.random((8, 4)), 0.0, 1.0)
        model = OneShotModel(6, 4, hidden=(8,), seed=3)
        model.fit(features, actions, [1.0] * 8, epochs=5, batch_size=4)
        path = tmp_path / "model.npz"
        model.save(str(path))
        clone = OneShotModel.load(str(path))
        probe = rng.standard_normal(6)
        action_a, score_a = model.predict(probe)
        action_b, score_b = clone.predict(probe)
        np.testing.assert_array_equal(action_a, action_b)
        assert score_a == score_b

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            OneShotModel(4, 3).predict(np.zeros(4))


# ---------------------------------------------------------------------------
# Recommender
# ---------------------------------------------------------------------------
class TestOneShotRecommender:
    def test_fit_predict_valid_physical_config(self):
        registry = mysql_registry()
        recommender = _trained_recommender(registry)
        assert recommender.ready
        prediction = recommender.predict(
            get_workload("sysbench-rw").signature(), CDB_A)
        assert prediction.latency_s < 0.1
        assert set(prediction.config) <= set(registry.names)
        # Every predicted knob value is inside its registry range:
        # validate() is a fixpoint on the prediction.
        assert registry.validate(prediction.config) == prediction.config
        payload = prediction.to_dict()
        assert payload["predicted_score"] == prediction.predicted_score
        assert "action" not in payload          # wire shape stays compact

    def test_too_small_corpus_raises(self):
        registry = mysql_registry()
        recommender = OneShotRecommender(registry, hidden=(8,))
        with pytest.raises(ValueError, match="too small"):
            recommender.fit_corpus(_synthetic_corpus(registry, n=2))

    def test_save_load_roundtrip(self, tmp_path):
        registry = mysql_registry()
        recommender = _trained_recommender(registry)
        path = tmp_path / "rec.npz"
        recommender.save(str(path))
        clone = OneShotRecommender.load(str(path), registry)
        assert clone.ready
        signature = get_workload("tpcc").signature()
        original = recommender.predict(signature, CDB_A)
        restored = clone.predict(signature, CDB_A)
        assert original.config == restored.config


# ---------------------------------------------------------------------------
# Corpus mining: live audit trail → training corpus → prediction
# ---------------------------------------------------------------------------
class TestCorpusMining:
    def test_training_corpus_best_per_source(self):
        history = HistoryStore()
        tuning = _run_tiny_session_result(seed=0)
        signature = get_workload("sysbench-rw").signature()
        history.add_result(signature, tuning, source="s1",
                           workload="sysbench-rw", hardware="CDB-A",
                           metrics=[1.0] * 63)
        corpus = history.training_corpus()
        assert len(corpus) == 1                  # one session, one example
        example = corpus[0]
        assert example.hardware == "CDB-A"
        assert len(example.metrics) == 63
        assert example.config
        # The example is the session's best record, not an arbitrary one.
        best = max((r for r in tuning.records if not r.crashed),
                   key=lambda r: r.reward)
        assert example.score >= best.reward or example.config

    def test_live_audit_roundtrip_to_prediction(self, tmp_path):
        """A real service session's audit trail mines back into a corpus
        (hardware stamped from the queued event) that trains a
        recommender whose held-out prediction is a valid config."""
        audit_path = tmp_path / "audit.jsonl"
        service = TuningService(registry=None, workers=1,
                                tuner_factory=_tiny_tuner,
                                audit=AuditLog(path=audit_path))
        with service:
            sid = service.submit(TuningRequest(
                hardware=CDB_A, workload="sysbench-rw", train_steps=2,
                tune_steps=1, seed=5, noise=0.0,
                train_kwargs=dict(TRAIN_KWARGS)))
            service.wait(sid, timeout=300)
            final = service.status(sid)
        assert final["state"] == SessionState.DEPLOYED

        history = HistoryStore.from_audit(audit_path)
        corpus = history.training_corpus()
        assert corpus and corpus[0].hardware == "CDB-A"

        registry = mysql_registry()
        recommender = OneShotRecommender(registry, hidden=(8, 8), seed=0,
                                         min_examples=1)
        fit = recommender.fit_corpus(corpus, epochs=5, batch_size=2)
        assert fit.examples == len(corpus)
        held_out = get_workload("sysbench-ro").signature()
        prediction = recommender.predict(held_out, CDB_B)
        assert registry.validate(prediction.config) == prediction.config


def _run_tiny_session_result(seed=0):
    tuner = CDBTune(seed=seed, noise=0.0, actor_hidden=(8, 8),
                    critic_hidden=(8, 8), critic_branch_width=4,
                    batch_size=4, prioritized_replay=False)
    workload = get_workload("sysbench-rw")
    tuner.offline_train(CDB_A, workload, max_steps=2, **TRAIN_KWARGS)
    return tuner.tune(CDB_A, workload, steps=2)


# ---------------------------------------------------------------------------
# Recommendation dataclass and its place in the /v1 status
# ---------------------------------------------------------------------------
class TestRecommendation:
    def test_roundtrip_and_validation(self):
        rec = Recommendation(config={"max_connections": 500.0},
                             source="oneshot", trials_used=0,
                             predicted_reward=1.5)
        clone = Recommendation.from_dict(json.loads(
            json.dumps(rec.to_dict())))
        assert clone == rec
        verified = rec.with_verified()
        assert verified.verified and not rec.verified
        with pytest.raises(ValueError, match="source"):
            Recommendation(config={}, source="psychic")
        with pytest.raises(ValueError, match="trials_used"):
            Recommendation(config={}, source="cold", trials_used=-1)

    def test_v1_status_has_recommendation_and_no_flat_config(self):
        """The structured recommendation is the only config a /v1 status
        carries; the flat ``recommended_config`` key is gone."""
        async def scenario():
            service = TuningService(registry=None, workers=1,
                                    tuner_factory=_tiny_tuner)
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                _, _, body = await http_request(
                    "127.0.0.1", front_door.port, "POST", "/v1/sessions",
                    {"workload": "sysbench-rw", "train_steps": 2,
                     "tune_steps": 1, "noise": 0.0,
                     "train_kwargs": TRAIN_KWARGS})
                await asyncio.get_running_loop().run_in_executor(
                    None, service.wait, body["session"], 300)
                return await http_request(
                    "127.0.0.1", front_door.port, "GET",
                    f"/v1/sessions/{body['session']}")
            finally:
                await front_door.shutdown(drain=True)
        status, _, payload = asyncio.run(asyncio.wait_for(scenario(), 300))
        assert status == 200
        assert payload["state"] == SessionState.DEPLOYED
        assert payload["recommendation"]["config"]
        assert "recommended_config" not in payload


# ---------------------------------------------------------------------------
# Request modes
# ---------------------------------------------------------------------------
class TestRequestModes:
    def _request(self, **overrides):
        kwargs = dict(hardware=CDB_A, workload="sysbench-rw",
                      train_steps=2, tune_steps=1, seed=0, noise=0.0)
        kwargs.update(overrides)
        return TuningRequest(**kwargs)

    def test_mode_defaults(self):
        """``mode`` defaults to ``full`` and takes the modes of
        :data:`MODES` only; every mode runs the full session's stages,
        in their order, plus its own."""
        assert self._request().mode == "full"
        assert list(MODES) == ["full", "refine", "oneshot", "compress"]
        for mode, stages in MODES.items():
            assert self._request(mode=mode).mode == mode
            assert [stage for stage in stages
                    if stage in MODES["full"]] == list(MODES["full"])
        with pytest.raises(ValueError, match="mode"):
            self._request(mode="psychic")


# ---------------------------------------------------------------------------
# End to end: one-shot session through the versioned front door
# ---------------------------------------------------------------------------
class TestOneShotServicePath:
    def test_acceptance_shape_over_v1(self):
        """POST a mode=oneshot session, then GET /v1/sessions/{id}: the
        completed session carries a structured recommendation with
        source provenance, and the audit shows the predicted stage."""
        async def scenario():
            recommender = _trained_recommender()
            service = TuningService(registry=None, workers=1,
                                    tuner_factory=_tiny_tuner,
                                    oneshot=recommender)
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                status, _, body = await http_request(
                    "127.0.0.1", front_door.port, "POST", "/v1/sessions",
                    {"workload": "sysbench-rw", "mode": "oneshot",
                     "train_steps": 4, "tune_steps": 1, "seed": 3,
                     "noise": 0.0, "train_kwargs": TRAIN_KWARGS})
                assert status == 202
                sid = body["session"]
                deadline = asyncio.get_event_loop().time() + 120
                while True:
                    status, _, payload = await http_request(
                        "127.0.0.1", front_door.port, "GET",
                        f"/v1/sessions/{sid}")
                    if payload["state"] in (SessionState.DEPLOYED,
                                            SessionState.FAILED):
                        break
                    assert asyncio.get_event_loop().time() < deadline
                    await asyncio.sleep(0.02)
                assert payload["state"] == SessionState.DEPLOYED
                assert SessionState.PREDICTED in payload["state_history"]
                recommendation = payload["recommendation"]
                assert recommendation["source"] in ("oneshot", "refined")
                assert recommendation["config"]
                assert recommendation["trials_used"] >= 0
                assert payload["prediction_latency_s"] < 0.1
                events = [e["event"]
                          for e in service.audit.events(sid)]
                assert "oneshot-predicted" in events
            finally:
                await front_door.shutdown(drain=True)
        asyncio.run(asyncio.wait_for(scenario(), 300))

    def test_unready_recommender_falls_back(self):
        """mode=oneshot without a fitted recommender degrades to the
        normal path and audits the fallback instead of failing."""
        service = TuningService(registry=None, workers=1,
                                tuner_factory=_tiny_tuner)
        with service:
            sid = service.submit(TuningRequest(
                hardware=CDB_A, workload="sysbench-rw", mode="oneshot",
                train_steps=2, tune_steps=1, seed=0, noise=0.0,
                train_kwargs=dict(TRAIN_KWARGS)))
            service.wait(sid, timeout=300)
            final = service.status(sid)
        assert final["state"] == SessionState.DEPLOYED
        assert SessionState.PREDICTED not in final["state_history"]
        events = [e["event"] for e in service.audit.events(sid)]
        assert "oneshot-unavailable" in events
        assert final["recommendation"]["source"] in ("warm", "cold")
