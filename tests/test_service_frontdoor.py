"""Async HTTP front door: admission, backpressure, drain, tracing.

Each test boots a real :class:`ServiceFrontDoor` on a free port inside
``asyncio.run`` and speaks actual HTTP/1.1 to it through the module's
stdlib client.  Worker threads are gated where determinism matters: a
``tuner_factory`` blocking on an event keeps sessions in WARMUP so queue
depth and drain behavior can be asserted without races.
"""

import asyncio
import threading
import time

import pytest

from repro.core.tuner import CDBTune
from repro.dbsim.hardware import CDB_A
from repro.obs import Tracer, get_metrics, use_tracer
from repro.service import SessionState, TuningService
from repro.service.frontdoor import ServiceFrontDoor, TokenBucket, http_request

TRAIN_KWARGS = {"probe_every": 1000, "episode_length": 2,
                "warmup_steps": 1, "stop_on_convergence": False}

SUBMIT_BODY = {"workload": "sysbench-rw", "train_steps": 2, "tune_steps": 1,
               "seed": 3, "noise": 0.0, "train_kwargs": TRAIN_KWARGS}


def _tiny_tuner(request):
    return CDBTune(seed=request.seed, noise=request.noise,
                   actor_hidden=(8, 8), critic_hidden=(8, 8),
                   critic_branch_width=4, batch_size=4,
                   prioritized_replay=False)


def _service(**overrides):
    kwargs = dict(registry=None, workers=2, tuner_factory=_tiny_tuner)
    kwargs.update(overrides)
    return TuningService(**kwargs)


def _gated_factory(gate):
    """Factory that parks worker threads until ``gate`` is set."""
    def factory(request):
        gate.wait(timeout=60)
        return _tiny_tuner(request)
    return factory


async def _get(front_door, path):
    return await http_request("127.0.0.1", front_door.port, "GET", path)


async def _post(front_door, path, body=None):
    return await http_request("127.0.0.1", front_door.port, "POST", path,
                              body)


async def _wait_terminal(front_door, session_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, status = await _get(front_door, f"/v1/sessions/{session_id}")
        if status["state"] in (SessionState.DEPLOYED, SessionState.FAILED):
            return status
        await asyncio.sleep(0.02)
    raise TimeoutError(f"session {session_id} not terminal in {timeout}s")


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, 300))


async def _raw_request(port, payload):
    """Send raw bytes (malformed framing the stdlib client can't produce)
    and return everything the server answers before closing."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), 30)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: clock[0])
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False]
        assert bucket.seconds_until() == pytest.approx(0.5)
        clock[0] = 0.5                      # one token refilled
        assert bucket.try_acquire() is True
        assert bucket.try_acquire() is False

    def test_capacity_is_capped_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=lambda: clock[0])
        clock[0] = 1000.0                   # long idle: still only 2 tokens
        assert [bucket.try_acquire() for _ in range(3)] == [
            True, True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


# ---------------------------------------------------------------------------
# HTTP API
# ---------------------------------------------------------------------------
class TestFrontDoorAPI:
    def test_submit_status_list_and_metrics(self):
        async def scenario():
            service = _service()
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                status, headers, body = await _post(
                    front_door, "/v1/sessions", SUBMIT_BODY)
                assert status == 202
                assert headers["content-type"].startswith("application/json")
                session_id = body["session"]
                assert body["tenant"] == "sysbench-rw@CDB-A"

                final = await _wait_terminal(front_door, session_id)
                assert final["state"] == SessionState.DEPLOYED

                status, _, listing = await _get(front_door, "/v1/sessions")
                assert status == 200
                assert [s["id"] for s in listing["sessions"]] == [session_id]

                status, _, health = await _get(front_door, "/v1/healthz")
                assert status == 200
                assert health["workers_alive"] == 2
                assert health["draining"] is False

                status, _, text = await _get(front_door, "/v1/metrics")
                assert status == 200
                assert "frontdoor_submitted" in text
                assert "service_queue_depth" in text
            finally:
                await front_door.shutdown(drain=True)
        _run(scenario())

    def test_client_errors(self):
        async def scenario():
            service = _service()
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                checks = [
                    # no workload
                    ("POST", "/v1/sessions", {"train_steps": 2}, 400),
                    ("POST", "/v1/sessions", {"workload": "nope"}, 400),
                    ("POST", "/v1/sessions",
                     dict(SUBMIT_BODY, hardware="CDB-Z"), 400),
                    ("POST", "/v1/sessions",
                     dict(SUBMIT_BODY, typo_field=1), 400),
                    ("POST", "/v1/sessions",
                     dict(SUBMIT_BODY, train_steps=0), 400),
                    ("GET", "/v1/sessions/s9999", None, 404),
                    ("GET", "/v1/no-such-route", None, 404),
                    ("POST", "/v1/metrics", None, 404),
                    ("GET", "/v1/shutdown", None, 404),
                ]
                for method, path, payload, expected in checks:
                    status, _, body = await http_request(
                        "127.0.0.1", front_door.port, method, path, payload)
                    assert status == expected, (method, path, body)
                # Wrong method on a valid sessions path.
                status, _, _ = await http_request(
                    "127.0.0.1", front_door.port, "DELETE", "/v1/sessions")
                assert status == 405
            finally:
                await front_door.shutdown(drain=True)
        _run(scenario())

    @pytest.mark.parametrize("field,value", [
        ("hardware", {}), ("hardware", ["CDB-A"]), ("noise", -1.0),
        ("seed", -3), ("tenant", ["x"]),
        ("train_kwargs", {"bogus": 1}), ("train_kwargs", {"max_steps": 5}),
        ("train_kwargs", {"episode_length": "x"}),
        ("train_kwargs", {"episode_length": 0}),
        ("train_kwargs", {"probe_every": 0}),
        ("train_kwargs", {"warmup_seeds": "x"}), ("train_kwargs", None),
        # Fields ``mode`` replaced: refused, not silently served as full.
        ("warm_start", False), ("compress", True), ("reuse_history", True),
        ("compress_components", 1), ("history_seeds", 3),
        ("history_replay", 4), ("verify_top_k", 2)])
    def test_malformed_field_is_400_at_the_door(self, field, value):
        """Rejected before a session exists, not failed in a worker."""
        async def scenario():
            service = _service()
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                status, _, body = await _post(
                    front_door, "/v1/sessions",
                    dict(SUBMIT_BODY, **{field: value}))
                return status, body, service.sessions()
            finally:
                await front_door.shutdown(drain=True)
        status, body, sessions = _run(scenario())
        assert status == 400, body
        assert sessions == []


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------
class TestBackpressure:
    def test_rate_limit_429(self):
        async def scenario():
            gate = threading.Event()
            service = _service(workers=1,
                               tuner_factory=_gated_factory(gate))
            front_door = await ServiceFrontDoor(
                service, port=0, max_queue_depth=100,
                tenant_rate=0.001, tenant_burst=2.0).start()
            limited_before = get_metrics().counter(
                "frontdoor.rate_limited").value
            try:
                results = [await _post(front_door, "/v1/sessions", SUBMIT_BODY)
                           for _ in range(4)]
                statuses = [status for status, _, _ in results]
                assert statuses == [202, 202, 429, 429]
                _, headers, body = results[2]
                assert body["error"] == "rate-limited"
                assert int(headers["retry-after"]) >= 1
                assert get_metrics().counter(
                    "frontdoor.rate_limited").value == limited_before + 2
                # A different tenant has its own bucket.
                status, _, _ = await _post(
                    front_door, "/v1/sessions",
                    dict(SUBMIT_BODY, tenant="other-tenant"))
                assert status == 202
            finally:
                gate.set()
                await front_door.shutdown(drain=True)
        _run(scenario())

    def test_shed_past_queue_depth(self):
        async def scenario():
            gate = threading.Event()
            service = _service(workers=1,
                               tuner_factory=_gated_factory(gate))
            front_door = await ServiceFrontDoor(
                service, port=0, max_queue_depth=2,
                tenant_rate=100.0, tenant_burst=100.0).start()
            shed_before = get_metrics().counter("frontdoor.shed").value
            try:
                status, _, first = await _post(front_door, "/v1/sessions",
                                               SUBMIT_BODY)
                assert status == 202
                # Wait until the single worker holds the first session so
                # the queue is empty and its depth is deterministic.
                deadline = time.monotonic() + 60
                while service.queue_depth() > 0:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)

                accepted = [first["session"]]
                for _ in range(2):                   # fills the bounded queue
                    status, _, body = await _post(front_door, "/v1/sessions",
                                                  SUBMIT_BODY)
                    assert status == 202
                    accepted.append(body["session"])
                status, headers, body = await _post(
                    front_door, "/v1/sessions", SUBMIT_BODY)
                assert status == 429
                assert body["error"] == "queue-full"
                assert body["bound"] == 2
                assert headers["retry-after"] == "1"
                assert get_metrics().counter(
                    "frontdoor.shed").value == shed_before + 1
            finally:
                gate.set()
                await front_door.shutdown(drain=True)
            # Shed submissions created no session; accepted ones all ran.
            assert len(service.sessions()) == 3
            for session_id in accepted:
                assert service.status(session_id)["state"] == \
                    SessionState.DEPLOYED
        _run(scenario())

    def test_drain_on_shutdown(self):
        async def scenario():
            gate = threading.Event()
            service = _service(workers=2,
                               tuner_factory=_gated_factory(gate))
            front_door = await ServiceFrontDoor(
                service, port=0, max_queue_depth=100,
                tenant_rate=100.0, tenant_burst=100.0).start()
            accepted = []
            for seed in range(4):
                status, _, body = await _post(
                    front_door, "/v1/sessions",
                    dict(SUBMIT_BODY, seed=seed, tenant=f"t{seed}"))
                assert status == 202
                accepted.append(body["session"])

            status, _, body = await _post(front_door, "/v1/shutdown",
                                          {"drain": True})
            assert status == 202 and body["draining"] is True
            # Draining: new submissions are refused while queued ones are
            # still guaranteed to finish (the gate holds the workers, so
            # the drain cannot have completed yet).
            status, _, body = await _post(front_door, "/v1/sessions",
                                          SUBMIT_BODY)
            assert status == 503 and body["error"] == "draining"

            gate.set()
            await asyncio.wait_for(front_door.serve_forever(), 120)
            for session_id in accepted:
                assert service.status(session_id)["state"] == \
                    SessionState.DEPLOYED
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                await http_request("127.0.0.1", front_door.port, "GET",
                                   "/v1/healthz", timeout=5.0)
        _run(scenario())


# ---------------------------------------------------------------------------
# Request framing and retention (PR 9 satellites)
# ---------------------------------------------------------------------------
class TestRequestFraming:
    def test_oversized_body_answers_413(self):
        """An over-limit body gets a 413 answer, never a silent hangup."""
        async def scenario():
            service = _service()
            front_door = await ServiceFrontDoor(
                service, port=0, max_body_bytes=64).start()
            bad_before = get_metrics().counter(
                "frontdoor.bad_requests").value
            try:
                status, headers, body = await _post(
                    front_door, "/v1/sessions",
                    dict(SUBMIT_BODY, padding="x" * 256))
                assert status == 413
                assert "64-byte limit" in body["error"]
                assert headers["connection"] == "close"
                assert get_metrics().counter(
                    "frontdoor.bad_requests").value == bad_before + 1
                # The request never reached the service.
                assert service.sessions() == []
            finally:
                await front_door.shutdown(drain=True)
        _run(scenario())

    def test_negative_and_invalid_content_length_answer_400(self):
        async def scenario():
            service = _service()
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                for value in (b"-5", b"banana"):
                    raw = await _raw_request(
                        front_door.port,
                        b"POST /v1/sessions HTTP/1.1\r\n"
                        b"Host: t\r\n"
                        b"Content-Length: " + value + b"\r\n\r\n")
                    assert raw.startswith(b"HTTP/1.1 400 "), raw
                    assert b"Content-Length" in raw
                    assert b"Connection: close" in raw
            finally:
                await front_door.shutdown(drain=True)
        _run(scenario())

    def test_evicted_session_answers_410(self):
        """Past the retention bound a finished session is *gone*, not
        *unknown*: 410 with an EXPIRED marker, never a 404."""
        async def scenario():
            service = _service(workers=1, session_retention=1)
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                ids = []
                for seed in range(2):
                    status, _, body = await _post(
                        front_door, "/v1/sessions",
                        dict(SUBMIT_BODY, seed=seed))
                    assert status == 202
                    ids.append(body["session"])
                    await _wait_terminal(front_door, ids[-1])
                # Eviction runs just after the session report; poll briefly.
                deadline = time.monotonic() + 60
                while True:
                    status, _, body = await _get(front_door,
                                                 f"/v1/sessions/{ids[0]}")
                    if status == 410:
                        break
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.02)
                assert body == {"id": ids[0], "state": SessionState.EXPIRED,
                                "expired": True}
                status, _, _ = await _get(front_door, f"/v1/sessions/{ids[1]}")
                assert status == 200
                # A never-submitted id is still 404, not 410.
                status, _, _ = await _get(front_door, "/v1/sessions/s9999")
                assert status == 404
            finally:
                await front_door.shutdown(drain=True)
        _run(scenario())


class TestBucketPruning:
    def test_idle_buckets_pruned(self):
        clock = [0.0]
        front_door = ServiceFrontDoor(
            _service(autostart=False), tenant_rate=1.0, tenant_burst=2.0,
            bucket_idle_s=10.0, clock=lambda: clock[0])
        pruned_before = get_metrics().counter(
            "frontdoor.buckets_pruned").value
        front_door._bucket("a")
        clock[0] = 5.0
        front_door._bucket("b")
        # No prune pass is due yet, so both buckets survive.
        assert set(front_door._buckets) == {"a", "b"}
        clock[0] = 12.0
        front_door._bucket("b")         # due pass drops a (idle 12 s ≥ 10 s)
        assert set(front_door._buckets) == {"b"}
        assert get_metrics().counter(
            "frontdoor.buckets_pruned").value == pruned_before + 1

    def test_idle_floor_never_undercuts_refill_time(self):
        """Pruning before a drained bucket refills would hand a
        rate-limited tenant a fresh full bucket."""
        front_door = ServiceFrontDoor(
            _service(autostart=False), tenant_rate=0.5, tenant_burst=100.0,
            bucket_idle_s=5.0)
        assert front_door.bucket_idle_s == pytest.approx(200.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="bucket_idle_s"):
            ServiceFrontDoor(_service(autostart=False), bucket_idle_s=0.0)


# ---------------------------------------------------------------------------
# Versioned routes
# ---------------------------------------------------------------------------
class TestVersionedRoutes:
    def test_v1_routes_are_canonical(self):
        """The /v1 forms serve directly, with no deprecation headers."""
        async def scenario():
            service = _service()
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                status, headers, body = await _post(
                    front_door, "/v1/sessions", SUBMIT_BODY)
                assert status == 202
                assert "deprecation" not in headers
                session_id = body["session"]

                status, headers, payload = await _get(
                    front_door, f"/v1/sessions/{session_id}")
                assert status == 200
                assert "deprecation" not in headers
                assert payload["id"] == session_id

                for path in ("/v1/sessions", "/v1/healthz", "/v1/metrics"):
                    status, headers, _ = await _get(front_door, path)
                    assert status == 200, path
                    assert "deprecation" not in headers

                status, _, _ = await _get(front_door, "/v1/no-such")
                assert status == 404
            finally:
                await front_door.shutdown(drain=True)
        _run(scenario())

    def test_unversioned_get_answers_404(self):
        """Only /v1 routes exist: a bare GET path is an unknown route."""
        async def scenario():
            service = _service()
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                status, headers, _ = await _get(front_door, "/healthz")
                assert status == 404
                assert "location" not in headers
            finally:
                await front_door.shutdown(drain=True)
        _run(scenario())

    def test_unversioned_post_answers_404(self):
        """A bare POST path is an unknown route and submits nothing."""
        async def scenario():
            service = _service()
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                status, headers, _ = await _post(front_door, "/sessions",
                                                 SUBMIT_BODY)
                assert status == 404
                assert "deprecation" not in headers
                assert service.sessions() == []
            finally:
                await front_door.shutdown(drain=True)
        _run(scenario())

    def test_non_object_json_body_is_400_not_500(self):
        """Valid JSON of the wrong shape is a client error and is counted
        under ``frontdoor.bad_requests`` like any other garbage."""
        async def scenario():
            service = _service()
            front_door = await ServiceFrontDoor(service, port=0).start()
            bad_before = get_metrics().counter(
                "frontdoor.bad_requests").value
            try:
                for payload, type_name in (([1, 2, 3], "list"),
                                           ("sysbench-rw", "str"),
                                           (42, "int")):
                    status, _, body = await _post(front_door, "/v1/sessions",
                                                  payload)
                    assert status == 400, body
                    assert type_name in body["error"]
                assert get_metrics().counter(
                    "frontdoor.bad_requests").value == bad_before + 3
                assert service.sessions() == []
            finally:
                await front_door.shutdown(drain=True)
        _run(scenario())


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class TestTraceThreading:
    def test_one_trace_from_accept_through_deploy(self):
        async def scenario(tracer):
            service = _service(workers=1)
            front_door = await ServiceFrontDoor(service, port=0).start()
            try:
                status, _, body = await _post(front_door, "/v1/sessions",
                                              SUBMIT_BODY)
                assert status == 202
                trace_id = body["trace"]
                assert trace_id is not None
                session_id = body["session"]
                final = await _wait_terminal(front_door, session_id)
                assert final["state"] == SessionState.DEPLOYED
                assert final["trace"] == trace_id
            finally:
                await front_door.shutdown(drain=True)

            span_names = {span["name"]
                          for span in tracer.spans(trace_id=trace_id)}
            # HTTP accept, service submit and the whole worker-side
            # lifecycle share the single trace id allocated at accept.
            assert {"frontdoor.request", "service.submit",
                    "service.session", "service.training",
                    "guard.canary"} <= span_names
            for record in service.audit.events(session_id):
                assert record["trace"] == trace_id

        with use_tracer(Tracer()) as tracer:
            _run(scenario(tracer))
