"""Unified result API: round-trips and telemetry."""

import json

import pytest

from repro.core.results import (
    EvalRecord,
    SessionReport,
    Telemetry,
    TrainingResult,
    TuningResult,
)
from repro.rl.reward import PerformanceSample


def _telemetry():
    t = Telemetry(trace_id="t0001")
    t.count("evaluations", 12)
    t.count("cache_hits", 4)
    t.add_phase("warmup", 0.5)
    t.add_phase("update", 1.25)
    return t


def _eval_record(crashed=False):
    return EvalRecord(knobs={"innodb_buffer_pool_size": 2.0 ** 30},
                      throughput=None if crashed else 1234.5,
                      latency=None if crashed else 8.25,
                      crashed=crashed, reward=-1.0 if crashed else 2.5,
                      wall_s=0.01, trial=3)


def _training_result():
    return TrainingResult(steps=64, episodes=4, converged=True,
                          iterations_to_convergence=48,
                          rewards=[0.1, 0.2, 0.3],
                          probe_throughputs=[1000.0, 1100.0],
                          probe_latencies=[10.0, 9.0], crashes=1,
                          best_probe=PerformanceSample(throughput=1100.0,
                                                       latency=9.0),
                          telemetry=_telemetry())


def _tuning_result():
    return TuningResult(
        initial=PerformanceSample(throughput=900.0, latency=12.0),
        best=PerformanceSample(throughput=1200.0, latency=8.0),
        best_config={"innodb_io_capacity": 4000.0}, steps=5,
        records=[_eval_record(), _eval_record(crashed=True)],
        telemetry=_telemetry())


def _roundtrip(obj):
    """to_dict -> JSON -> from_dict; JSON proves it is plain data."""
    data = json.loads(json.dumps(obj.to_dict()))
    return type(obj).from_dict(data)


class TestTelemetry:
    def test_roundtrip(self):
        t = _telemetry()
        back = _roundtrip(t)
        assert back == t
        assert back.trace_id == "t0001"
        assert back.total_seconds == pytest.approx(1.75)

    def test_count_and_add_phase_accumulate(self):
        t = Telemetry()
        t.count("x")
        t.count("x", 2)
        t.add_phase("p", 0.5)
        t.add_phase("p", 0.25)
        assert t.counters == {"x": 3}
        assert t.phase_seconds == {"p": 0.75}

    def test_merge_sums_and_keeps_first_trace(self):
        a = Telemetry(trace_id=None)
        a.count("evals", 2)
        a.add_phase("train", 1.0)
        b = Telemetry(trace_id="t0002")
        b.count("evals", 3)
        b.add_phase("train", 0.5)
        b.add_phase("tune", 0.25)
        merged = a.merge(b)
        assert merged.counters == {"evals": 5}
        assert merged.phase_seconds == {"train": 1.5, "tune": 0.25}
        assert merged.trace_id == "t0002"
        # Inputs are untouched.
        assert a.counters == {"evals": 2}

    def test_empty_from_dict(self):
        t = Telemetry.from_dict({})
        assert t.counters == {} and t.phase_seconds == {}
        assert t.trace_id is None


class TestEvalRecord:
    def test_roundtrip(self):
        record = _eval_record()
        back = _roundtrip(record)
        assert back == record
        assert back.performance == PerformanceSample(throughput=1234.5,
                                                     latency=8.25)
        assert back.config is back.knobs

    def test_crashed_roundtrip(self):
        back = _roundtrip(_eval_record(crashed=True))
        assert back.crashed
        assert back.performance is None


class TestTrainingResult:
    def test_roundtrip(self):
        result = _training_result()
        back = _roundtrip(result)
        assert back == result
        assert back.final_probe == PerformanceSample(throughput=1100.0,
                                                     latency=9.0)


class TestTuningResult:
    def test_roundtrip(self):
        result = _tuning_result()
        back = _roundtrip(result)
        assert back == result
        assert back.throughput_improvement == pytest.approx(300.0 / 900.0)
        assert back.latency_improvement == pytest.approx(4.0 / 12.0)


class TestSessionReport:
    def test_roundtrip_full(self):
        report = SessionReport(
            session_id="s-0001", tenant="tenant-a",
            workload="sysbench-rw", hardware="CDB-A", state="deployed",
            state_history=["queued", "training", "deployed"], priority=2,
            warm_started_from="model-1", warm_start_distance=0.1,
            train_budget=64, deployed=True, model_id="model-2",
            error=None, training=_training_result(),
            tuning=_tuning_result(),
            canary={"accepted": True, "reason": "ok"},
            telemetry=_telemetry())
        back = _roundtrip(report)
        assert back == report

    def test_roundtrip_minimal(self):
        report = SessionReport(session_id="s-0002", tenant="t",
                               workload="tpcc", hardware="CDB-B",
                               state="failed", error="boom")
        back = _roundtrip(report)
        assert back == report
        assert back.training is None and back.tuning is None
        assert back.canary is None


class TestInternalCodeIsWarningClean:
    def test_pipeline_results_use_no_deprecated_names(self):
        """A real train+tune round under -W error semantics."""
        import warnings

        from repro.core.tuner import CDBTune
        from repro.dbsim.hardware import CDB_A

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            tuner = CDBTune(seed=1, noise=0.0, actor_hidden=(16, 16),
                            critic_hidden=(16, 16), critic_branch_width=8,
                            batch_size=8, prioritized_replay=False)
            training = tuner.offline_train(CDB_A, "sysbench-rw",
                                           max_steps=16, probe_every=8,
                                           episode_length=8, warmup_steps=4,
                                           stop_on_convergence=False)
            tuning = tuner.tune(CDB_A, "sysbench-rw", steps=2)
        assert training.telemetry.counters["evaluations"] > 0
        assert tuning.records
