"""Observability layer: tracing, metrics, phase timing, reporting.

Covers the acceptance points of the obs subsystem:

* fixed-bucket histogram math (inclusive upper bounds, +Inf overflow,
  interpolated quantiles) and the Prometheus text exposition;
* SpanExporter emits valid JSONL, one record per finished span;
* span parent/child integrity on one thread and across service worker
  threads joining a session trace;
* phase seconds and phase histograms are span wall times;
* the no-op default tracer adds bounded overhead to a smoke-sized
  ``offline_train`` run (<5%).
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.tuner import CDBTune
from repro.dbsim.hardware import CDB_A
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullTracer,
    SpanExporter,
    Tracer,
    get_tracer,
    obs_report,
    set_metrics,
    set_tracer,
    use_tracer,
)
from repro.service import TuningRequest, TuningService


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestHistogram:
    def test_bucket_boundaries_are_inclusive(self):
        h = Histogram("t", buckets=(0.1, 1.0))
        h.observe(0.1)    # lands in the 0.1 bucket (le semantics)
        h.observe(0.5)    # 1.0 bucket
        h.observe(1.0)    # 1.0 bucket
        h.observe(2.0)    # +Inf
        assert h.cumulative_counts() == [(0.1, 1), (1.0, 3),
                                         (float("inf"), 4)]
        assert h.count == 4
        assert h.sum == pytest.approx(3.6)
        assert h.mean == pytest.approx(0.9)

    def test_quantiles_interpolate_within_buckets(self):
        h = Histogram("t", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 2.5, 3.5):
            h.observe(value)
        assert h.quantile(0.0) == pytest.approx(0.5)  # clamped to min
        # Median of 4 samples: 2 of 4 -> upper edge of the 2.0 bucket.
        assert h.quantile(0.5) == pytest.approx(2.0)
        assert h.quantile(1.0) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_histogram(self):
        h = Histogram("t", buckets=(1.0,))
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0
        assert h.to_dict()["min"] is None

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t", buckets=())
        with pytest.raises(ValueError):
            Histogram("t", buckets=(1.0, 1.0))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_name_collision_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("a").inc(-1)

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("loss").set(0.25)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["kind"] == "metrics"
        assert snap["counters"] == {"hits": 3.0}
        assert snap["gauges"] == {"loss": 0.25}
        assert snap["histograms"]["lat"]["count"] == 1
        # Snapshot is JSON-serializable as-is.
        json.dumps(snap)

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("db.evaluate.requests", help="eval calls").inc(2)
        registry.gauge("ddpg.critic_loss").set(1.5)
        registry.histogram("phase", buckets=(0.5, 1.0)).observe(0.7)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# HELP db_evaluate_requests eval calls" in lines
        assert "# TYPE db_evaluate_requests counter" in lines
        assert "db_evaluate_requests 2" in lines
        assert "# TYPE ddpg_critic_loss gauge" in lines
        assert "ddpg_critic_loss 1.5" in lines
        assert 'phase_bucket{le="0.5"} 0' in lines
        assert 'phase_bucket{le="1"} 1' in lines
        assert 'phase_bucket{le="+Inf"} 1' in lines
        assert "phase_count 1" in lines
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Phase timing
# ---------------------------------------------------------------------------
class TestPhaseTiming:
    def test_phase_seconds_are_span_walls(self):
        """``phase_seconds`` and the phase histograms read span wall times."""
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            with use_tracer(Tracer()) as tracer:
                tuner = CDBTune(seed=0, noise=0.0, actor_hidden=(16, 16),
                                critic_hidden=(16, 16),
                                critic_branch_width=8, batch_size=8,
                                prioritized_replay=False)
                result = tuner.offline_train(
                    CDB_A, "sysbench-rw", max_steps=12, probe_every=6,
                    episode_length=6, warmup_steps=4,
                    stop_on_convergence=False)
                tuned = tuner.tune(CDB_A, "sysbench-rw", steps=2)
        finally:
            set_metrics(previous)

        def walls(name):
            return sum(r["wall_s"] for r in tracer.spans(name=name))

        phases = result.telemetry.phase_seconds
        assert phases["reset"] == pytest.approx(
            walls("offline_train.episode"))
        assert phases["warmup"] + phases["train"] == pytest.approx(
            walls("offline_train.step"))
        assert phases["probe"] == pytest.approx(walls("offline_train.probe"))
        probes = registry.histogram("offline_train.probe")
        assert probes.count == 2
        assert probes.sum == pytest.approx(phases["probe"])
        assert tuned.telemetry.phase_seconds["steps"] == pytest.approx(
            walls("online_tune.step"))
        assert [r.wall_s for r in tuned.records] == [
            r["wall_s"] for r in tracer.spans(name="online_tune.step")]
        assert registry.histogram("db.stress_test_seconds").sum == \
            pytest.approx(walls("db.stress_test"))


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class TestTracer:
    def test_parent_child_nesting(self):
        tracer = Tracer()
        with tracer.span("parent", depth=0) as parent:
            with tracer.span("child") as child:
                assert child.trace_id == parent.trace_id
                assert child.parent_id == parent.span_id
                assert tracer.current() is child
            assert tracer.current() is parent
        assert tracer.current() is None
        records = tracer.spans(trace_id=parent.trace_id)
        assert [r["name"] for r in records] == ["child", "parent"]
        assert records[0]["parent"] == parent.span_id
        assert records[1]["parent"] is None

    def test_sibling_spans_get_distinct_traces_at_top_level(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_error_status_and_tag(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        record = tracer.spans(name="boom")[0]
        assert record["status"] == "error"
        assert "RuntimeError" in record["tags"]["error"]

    def test_worker_threads_join_one_trace(self):
        tracer = Tracer()
        trace_id = tracer.new_trace_id()

        def worker(index):
            with tracer.root_span("work", trace_id=trace_id, index=index):
                with tracer.span("inner"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = tracer.spans(trace_id=trace_id)
        roots = [r for r in records if r["name"] == "work"]
        inners = [r for r in records if r["name"] == "inner"]
        assert len(roots) == 4 and len(inners) == 4
        root_ids = {r["span"] for r in roots}
        assert all(r["parent"] in root_ids for r in inners)
        # Span ids are unique across threads.
        assert len({r["span"] for r in records}) == 8

    def test_null_tracer_is_inert(self):
        """Null spans time themselves: no ids, no stack, nothing kept."""
        tracer = NullTracer()
        assert tracer.new_trace_id() is None
        assert tracer.current() is None
        assert tracer.current_trace_id() is None
        span = tracer.span("anything", tag=1)
        with span as s:
            assert s is span
            assert s.set_tag("k", "v") is s
            assert tracer.current() is None
            time.sleep(0.002)
        assert span.wall_s >= 0.002
        with tracer.root_span("r", trace_id="t0001") as root:
            pass
        assert root is not span and root.wall_s >= 0.0
        for each in (span, root):
            assert each.trace_id is None
            assert each.span_id is None and each.parent_id is None
        assert tracer.spans() == []

    def test_use_tracer_restores_previous(self):
        original = get_tracer()
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is original

    def test_keep_bound(self):
        tracer = Tracer(keep=3)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert [r["name"] for r in tracer.spans()] == ["s7", "s8", "s9"]


class TestSpanExporter:
    def test_jsonl_validity(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with SpanExporter(path) as exporter:
            tracer = Tracer(exporter)
            with tracer.span("outer", n=np.int64(3), f=np.float32(0.5)):
                with tracer.span("inner"):
                    pass
            exporter.export({"kind": "metrics", "counters": {}})
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == ["span", "span", "metrics"]
        inner, outer = records[0], records[1]
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["span"]
        assert outer["tags"] == {"n": 3, "f": 0.5}
        assert outer["wall_s"] >= inner["wall_s"] >= 0.0
        for record in records[:2]:
            assert set(record) == {"kind", "trace", "span", "parent", "name",
                                   "start", "wall_s", "cpu_s", "status",
                                   "tags"}


# ---------------------------------------------------------------------------
# End-to-end: service session tracing + report rendering
# ---------------------------------------------------------------------------
class TestServiceTracing:
    def test_session_trace_covers_lifecycle(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = SpanExporter(path)
        previous = set_tracer(Tracer(exporter))
        try:
            service = TuningService(
                workers=2,
                tuner_factory=lambda request: CDBTune(
                    seed=request.seed, noise=request.noise,
                    actor_hidden=(16, 16), critic_hidden=(16, 16),
                    critic_branch_width=8, batch_size=8,
                    prioritized_replay=False))
            request = TuningRequest(
                hardware=CDB_A, workload="sysbench-rw", train_steps=12,
                tune_steps=2, seed=5, noise=0.0,
                train_kwargs={"probe_every": 1000, "episode_length": 6,
                              "warmup_steps": 4,
                              "stop_on_convergence": False})
            session_id = service.submit(request)
            service.wait(session_id)
            service.shutdown()
            status = service.status(session_id)
            trace_id = status["trace"]
            assert trace_id is not None
        finally:
            set_tracer(previous)
            exporter.close()

        records = [json.loads(line)
                   for line in path.read_text().strip().splitlines()]
        session_spans = [r for r in records if r["trace"] == trace_id]
        names = {r["name"] for r in session_spans}
        # submit -> warmup -> training -> canary covered by one trace.
        assert {"service.submit", "service.session", "service.warmup",
                "service.training", "service.tuning",
                "service.canary"} <= names
        by_id = {r["span"]: r for r in session_spans}
        root = next(r for r in session_spans
                    if r["name"] == "service.session")
        for phase in ("service.warmup", "service.training",
                      "service.tuning", "service.canary"):
            span = next(r for r in session_spans if r["name"] == phase)
            # Walk up to the session root.
            node = span
            while node["parent"] is not None:
                node = by_id[node["parent"]]
            assert node["span"] == root["span"]
        # Deep instrumentation joins the same trace under the session root.
        assert "offline_train" in names
        assert "db.stress_test" in names

        # The report renderer understands the trace end to end.
        text = obs_report(path)
        assert "service.session" in text
        assert "offline_train" in text

    def test_audit_has_no_trace_field_when_tracing_off(self):
        from repro.service import AuditLog

        audit = AuditLog()
        service = TuningService(
            workers=1, audit=audit,
            tuner_factory=lambda request: CDBTune(
                seed=request.seed, noise=request.noise,
                actor_hidden=(16, 16), critic_hidden=(16, 16),
                critic_branch_width=8, batch_size=8,
                prioritized_replay=False))
        request = TuningRequest(
            hardware=CDB_A, workload="sysbench-rw", train_steps=10,
            tune_steps=1, seed=5, noise=0.0,
            train_kwargs={"probe_every": 1000, "episode_length": 5,
                          "warmup_steps": 4, "stop_on_convergence": False})
        session_id = service.submit(request)
        service.wait(session_id)
        service.shutdown()
        for record in audit:
            assert "trace" not in record


# ---------------------------------------------------------------------------
# Overhead bound of the no-op default
# ---------------------------------------------------------------------------
class TestNullTracerOverhead:
    def test_noop_overhead_under_five_percent(self):
        assert isinstance(get_tracer(), NullTracer)

        tuner = CDBTune(seed=0, noise=0.0, actor_hidden=(16, 16),
                        critic_hidden=(16, 16), critic_branch_width=8,
                        batch_size=8, prioritized_replay=False)
        tick = time.perf_counter()
        result = tuner.offline_train(CDB_A, "sysbench-rw", max_steps=64,
                                     probe_every=16, episode_length=16,
                                     warmup_steps=8,
                                     stop_on_convergence=False)
        run_wall = time.perf_counter() - tick
        assert result.steps == 64

        # Count how many tracer touch-points the run actually exercised
        # (spans per step/evaluation/update plus per-phase blocks), then
        # price the same number of no-op span cycles directly.
        evaluations = result.telemetry.counters["evaluations"]
        updates = result.telemetry.counters["agent_updates"]
        touch_points = int(3 * evaluations + 2 * updates + 64 + 32)
        tracer = get_tracer()
        tick = time.perf_counter()
        for _ in range(touch_points):
            with tracer.span("noop", a=1) as span:
                span.set_tag("b", 2)
        noop_wall = time.perf_counter() - tick
        assert noop_wall < 0.05 * run_wall, (
            f"no-op tracing cost {noop_wall:.4f}s vs run {run_wall:.4f}s")
