"""BLAS thread control (``repro.nn.blas``) and the service CLI's pin."""

import json
import multiprocessing

import pytest

from repro.nn import blas
from repro.nn.blas import get_blas_threads, set_blas_threads
from repro.service import cli

needs_openblas = pytest.mark.skipif(get_blas_threads() is None,
                                    reason="no OpenBLAS loaded")


@pytest.fixture
def restore_threads():
    original = get_blas_threads()
    yield
    if original is not None:
        set_blas_threads(original)


def _report_threads(conn) -> None:
    conn.send(get_blas_threads())
    conn.close()


@needs_openblas
class TestBlasThreads:
    def test_round_trip_and_restore(self, restore_threads):
        original = get_blas_threads()
        assert set_blas_threads(2) == original
        assert get_blas_threads() == 2
        assert set_blas_threads(1) == 2
        assert get_blas_threads() == 1
        assert set_blas_threads(original) == 1
        assert get_blas_threads() == original

    def test_rejects_fewer_than_one_thread(self, restore_threads):
        before = get_blas_threads()
        with pytest.raises(ValueError):
            set_blas_threads(0)
        assert get_blas_threads() == before

    def test_not_found_is_a_no_op(self, restore_threads, monkeypatch):
        set_blas_threads(2)
        with monkeypatch.context() as patch:
            patch.setattr(blas, "_mapped_openblas_paths", lambda: [])
            assert get_blas_threads() is None
            assert set_blas_threads(1) is None
        assert get_blas_threads() == 2

    def test_forked_child_inherits_pin(self, restore_threads):
        set_blas_threads(1)
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_report_threads, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(30), "child never reported"
            assert receiver.recv() == 1
        finally:
            child.join(timeout=30)
        assert not child.is_alive()
        assert child.exitcode == 0


def _recommended_config(audit_path) -> dict:
    with open(audit_path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle]
    reports = [event["report"] for event in events
               if event["event"] == "session-report"]
    assert len(reports) == 1
    assert reports[0]["state"] == "DEPLOYED"
    return reports[0]["recommendation"]["config"]


@needs_openblas
def test_cli_result_does_not_depend_on_starting_threads(tmp_path,
                                                        restore_threads):
    # Seed 1 recommends a different config at 1 and 2 BLAS threads when
    # the CLI leaves the process's thread count alone.
    configs = {}
    for threads in (2, 1):
        run = tmp_path / f"threads{threads}"
        run.mkdir()
        set_blas_threads(threads)
        assert cli.main([
            "--workload", "sysbench-rw", "--steps", "72", "--seed", "1",
            "--registry", str(run / "registry"),
            "--audit", str(run / "audit.jsonl"),
            "--metrics-out", str(run / "metrics.json")]) == 0
        assert get_blas_threads() == threads
        metrics = json.loads((run / "metrics.json").read_text())
        assert metrics["gauges"]["service.blas_threads"] == cli.BLAS_THREADS
        configs[threads] = _recommended_config(run / "audit.jsonl")
    assert configs[2] == configs[1]


def test_gauge_reports_missing_openblas(tmp_path, monkeypatch,
                                        restore_threads):
    monkeypatch.setattr(blas, "_mapped_openblas_paths", lambda: [])
    assert cli.main([
        "--workload", "sysbench-rw", "--steps", "12",
        "--registry", str(tmp_path / "registry"),
        "--metrics-out", str(tmp_path / "metrics.json")]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["gauges"]["service.blas_threads"] == -1
