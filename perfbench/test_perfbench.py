"""Tests for the benchmark's own pieces.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import textwrap
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import loadgen  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import traced_serve  # noqa: E402
import workloads  # noqa: E402


def _take(stream, count):
    return [json.dumps(body, sort_keys=True)
            for body in itertools.islice(stream, count)]


@pytest.mark.parametrize("name", sorted(workloads.STREAMS))
def test_same_seed_gives_identical_request_bodies(name):
    make = workloads.STREAMS[name]
    assert _take(make(7), 40) == _take(make(7), 40)
    assert _take(make(7), 40) != _take(make(8), 40)


@pytest.mark.parametrize("name", sorted(workloads.STREAMS))
def test_requests_use_only_the_public_fields(name):
    public = {"workload", "hardware", "tenant", "mode", "train_steps",
              "tune_steps", "seed"}
    for body in itertools.islice(workloads.STREAMS[name](3), 40):
        assert set(body) <= public


def test_cold_workloads_are_out_of_warm_start_range():
    from repro.dbsim.workload import WORKLOADS, WorkloadSpec, \
        signature_distance
    from repro.service.server import TuningService

    assert workloads.WARM_START_DISTANCE == \
        TuningService().warm_start_max_distance
    for seed in (0, 1, 2):
        specs = [WorkloadSpec(**body["workload"]["slices"][0]["components"]
                              [0]["spec"])
                 for body in itertools.islice(workloads.cold_train(seed), 60)]
        signatures = [spec.signature() for spec in specs]
        for a, b in itertools.combinations(signatures, 2):
            assert signature_distance(a, b) > workloads.WARM_START_DISTANCE
        for a in signatures:
            for named in WORKLOADS.values():
                assert signature_distance(a, named.signature()) \
                    > workloads.WARM_START_DISTANCE


def test_signature_matches_the_program():
    from repro.dbsim.workload import WORKLOADS

    for name, spec in WORKLOADS.items():
        assert workloads.signature(workloads.NAMED_SPECS[name]) \
            == spec.signature()


@pytest.mark.parametrize("n", [1, 5, 20, 21, 25, 40, 100, 1000])
def test_tail_rule(n):
    values = [float(i) for i in range(n)][::-1]      # unsorted input
    value, percentile, count = loadgen.tail(values)
    assert count == n
    assert value >= loadgen.median(values)
    if n > 20:
        beyond = sum(1 for v in values if v > value)
        assert beyond >= 10
        # The next-higher sample would leave fewer than ten beyond it.
        assert sum(1 for v in values if v > value + 1) < 10
        assert percentile == pytest.approx(100.0 * (n - 10) / n)
    else:
        assert value == loadgen.median(values)
        assert percentile == 50.0


_BURNER = textwrap.dedent("""
    import os, sys, time
    block = bytearray(64 << 20)
    for index in range(0, len(block), 4096):
        block[index] = 1
    pid = os.fork()
    if pid == 0:
        child = bytearray(64 << 20)
        for index in range(0, len(child), 4096):
            child[index] = 1
    end = time.process_time() + 0.4
    while time.process_time() < end:
        pass
    sys.stdout.write("ready\\n")
    sys.stdout.flush()
    time.sleep(30)
""")


def test_cpu_and_rss_accounting_across_a_forked_tree():
    process = subprocess.Popen([sys.executable, "-c", _BURNER],
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        assert process.stdout.readline() == "ready\n"
        assert process.stdout.readline() == "ready\n"
        tree = procs.tree(process.pid)
        assert len(tree) == 2
        assert procs.cpu_seconds(tree) >= 0.75
        # 64 MiB touched by the parent (shared with the child after the
        # fork, so counted in both) plus the child's own 64 MiB.
        assert procs.peak_rss_mb(tree) >= 3 * 64
        assert process.pid in procs.tree(process.pid)
    finally:
        procs.kill_group(process)
    assert process.poll() is not None
    assert not procs._group_alive(process.pid)


def test_split_lines_tolerates_a_torn_last_line():
    first = b'{"session": "s0001", "event": "queued"}\n'
    torn = b'{"session": "s0001", "ev'
    records, rest, bad = loadgen.split_lines(b"", first + torn)
    assert [r["event"] for r in records] == ["queued"]
    assert rest == torn and bad == 0
    # The writer finishes the line on the next read.
    records, rest, bad = loadgen.split_lines(rest, b'ent": "started"}\n')
    assert [r["event"] for r in records] == ["started"]
    assert rest == b"" and bad == 0
    # A killed writer leaves a whole line that is not JSON: skip, count.
    records, rest, bad = loadgen.split_lines(
        b"", b'{"session": "s0002", "eve\n' + first)
    assert [r["session"] for r in records] == ["s0001"] and bad == 1


def test_audit_tail_stamps_lines_as_they_appear(tmp_path):
    path = tmp_path / "audit.jsonl"
    tail = loadgen.AuditTail(str(path)).start()
    try:
        with open(path, "ab", buffering=0) as handle:
            handle.write(b'{"session": "s1", "event": "queued"}\n'
                         b'{"session": "s1", "event": "depl')
            time.sleep(0.05)
            assert [e for e, _, _ in tail.events("s1")] == ["queued"]
            before = time.perf_counter()
            handle.write(b'oyed"}\n{"session": "s1", '
                         b'"event": "session-report", "report": {}}\n')
            assert tail.wait_done("s1", timeout=5.0)
        events = tail.events("s1")
        assert [e for e, _, _ in events] == ["queued", "deployed",
                                             "session-report"]
        assert events[1][1] >= before
        assert "report" not in events[2][2]
    finally:
        tail.stop()


def test_self_time_excludes_nested_wrapped_calls(tmp_path):
    capture = traced_serve.Capture(str(tmp_path))

    def inner():
        time.sleep(0.05)

    wrapped_inner = capture.wrap("inner", inner)

    def outer():
        time.sleep(0.05)
        wrapped_inner()

    capture.wrap("outer", outer)()
    calls, total, own, _ = capture.stats["outer"]
    assert calls == 1
    assert total >= 0.1
    assert own == pytest.approx(total - capture.stats["inner"][1], abs=1e-6)
    assert 0.04 < own < total
    capture.dump()
    dumped = json.loads((tmp_path / f"{os.getpid()}.json").read_text())
    assert dumped["stats"]["inner"][0] == 1


def test_benchmark_json_lists_exactly_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.STREAMS)
