"""Session contract of the tuning service, recorded and replayed.

Six seeded sessions run through one :class:`TuningService` (one worker,
a tiny tuner, noise 0, BLAS on one thread), in this order:

* ``cold`` — a ``full`` session for a new tenant;
* ``warm`` — the same tenant again, warm-started from the registry;
* ``history`` — a session bootstrapped from the service's history;
* ``compress`` — a compressed session on a 3-component mix, tuned on one
  component and verified on the full mix;
* ``oneshot`` — a one-shot session with a fitted recommender;
* ``blocked`` — a session whose canary rejects the recommendation.

For each, ``tests/data/service_contract.json`` holds the ordered audit
event names with each event's field names, the ``state_history``, the
status keys, and the recommendation's ``source``, ``verified``,
``deployed`` and config.  These are what ``perfbench``'s checker and
load generator, ``HistoryStore.from_audit``, shard replay and the CI
registry smoke read, so a change to how sessions run must leave them as
they are.  Config values compare at a relative tolerance of 1e-9.  The
budgets a session ran with — its training budget, the components its
compression kept, and the warmup and replay seeds its history bootstrap
merged — must match too: the recommended config alone does not show
them (a tiny tuner's candidates can survive a changed budget).

Regenerate the fixture (only for an intended change of the contract)
with::

    PYTHONPATH=src python -m tests.test_service_contract --record
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.tuner import CDBTune
from repro.dbsim import CDB_A, SimulatedDatabase, get_workload, mysql_registry
from repro.nn.blas import set_blas_threads
from repro.oneshot import OneShotRecommender
from repro.reuse import WorkloadMix
from repro.service import (
    AuditLog,
    ModelRegistry,
    TuningRequest,
    TuningService,
)

FIXTURE = Path(__file__).parent / "data" / "service_contract.json"
RTOL = 1e-9

TRAIN_KWARGS = {"probe_every": 1000, "episode_length": 6,
                "warmup_steps": 4, "stop_on_convergence": False}

#: Request fields that make each session what its name says, beyond the
#: workload, tenant and seed.
SPELLING = {
    "cold": {},
    "warm": {},
    "history": {"mode": "refine"},
    "compress": {"mode": "compress"},
    "oneshot": {"mode": "oneshot"},
    "blocked": {},
}

LETHAL_LOG_CONFIG = {"innodb_log_file_size": 16 * 2**30,
                     "innodb_log_files_in_group": 100}


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


def _recommender():
    """A one-shot recommender fitted on a small synthetic corpus."""
    registry = mysql_registry()
    rng = np.random.default_rng(0)
    base = get_workload("sysbench-rw").signature()
    corpus = []
    for index in range(6):
        action = np.clip(
            0.5 + 0.1 * rng.standard_normal(registry.n_tunable), 0.0, 1.0)
        corpus.append({
            "signature": {k: float(v) + 0.01 * index
                          for k, v in base.items()},
            "config": registry.from_vector(action),
            "score": 100.0 + index, "hardware": "CDB-A"})
    recommender = OneShotRecommender(registry, hidden=(8, 8), seed=0)
    recommender.fit_corpus(corpus, epochs=10, batch_size=4)
    return recommender


def _block_every_canary(service):
    """Make the guard reject every candidate, as a crashing one is."""
    database = SimulatedDatabase(CDB_A, get_workload("sysbench-rw"),
                                 noise=0.0, seed=0)
    rejected = service.guard.canary(
        database, {**database.default_config(), **LETHAL_LOG_CONFIG})
    assert not rejected.accepted
    service.guard.canary = lambda *args, **kwargs: rejected


#: ``(name, workload, tenant, seed)`` in submission order.
SESSIONS = (
    ("cold", "sysbench-rw", "tenant-a", 5),
    ("warm", "sysbench-rw", "tenant-a", 6),
    ("history", "sysbench-rw", "tenant-b", 7),
    ("compress", "mix", "tenant-c", 8),
    ("oneshot", "sysbench-rw", "tenant-d", 9),
    ("blocked", "sysbench-rw", "tenant-e", 10),
)


def run_sessions(directory: Path):
    """Run the six sessions; returns ``{name: observed contract}``."""
    previous = set_blas_threads(1)
    try:
        service = TuningService(
            registry=ModelRegistry(directory / "registry"),
            audit=AuditLog(directory / "audit.jsonl"), workers=1,
            tuner_factory=_tiny_tuner, oneshot=_recommender())
        ids = {}
        with service:
            for name, workload, tenant, seed in SESSIONS:
                if name == "blocked":
                    _block_every_canary(service)
                request = TuningRequest(
                    hardware=CDB_A,
                    workload=_mix() if workload == "mix" else workload,
                    tenant=tenant, train_steps=12, tune_steps=2, seed=seed,
                    noise=0.0, train_kwargs=dict(TRAIN_KWARGS),
                    **SPELLING[name])
                ids[name] = service.submit(request)
                service.wait(ids[name], timeout=600)
        # Shutdown joined the worker, so each session-report is written.
        return {name: _observe(service, session_id)
                for name, session_id in ids.items()}
    finally:
        if previous is not None:
            set_blas_threads(previous)


def _observe(service, session_id):
    status = service.status(session_id)
    recommendation = status.get("recommendation") or {}
    compression = status.get("compression", {})
    bootstrap = status.get("history_bootstrap", {})
    # The submitting thread emits "queued" after the session is on the
    # queue, so an idle worker's first events can land before it.
    events = sorted(service.audit.events(session_id),
                    key=lambda event: event["event"] != "queued")
    return {
        "events": [[event["event"], sorted(event)] for event in events],
        "state_history": status["state_history"],
        "status_keys": sorted(status),
        "budgets": [status["train_budget"],
                    compression.get("components_kept"),
                    bootstrap.get("warmup_seeds"),
                    bootstrap.get("replay_seeds")],
        "source": recommendation.get("source"),
        "verified": recommendation.get("verified"),
        "deployed": status["deployed"],
        "config": recommendation.get("config"),
    }


@pytest.fixture(scope="module")
def observed():
    with tempfile.TemporaryDirectory() as directory:
        yield run_sessions(Path(directory))


@pytest.fixture(scope="module")
def expected():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", [name for name, *_ in SESSIONS])
def test_session_contract(name, observed, expected):
    seen, want = observed[name], expected[name]
    assert seen["events"] == want["events"]
    assert seen["state_history"] == want["state_history"]
    assert seen["status_keys"] == want["status_keys"]
    assert seen["budgets"] == want["budgets"]
    for key in ("source", "verified", "deployed"):
        assert seen[key] == want[key], key
    assert seen["config"].keys() == want["config"].keys()
    for knob, value in want["config"].items():
        assert seen["config"][knob] == pytest.approx(value, rel=RTOL), knob


def test_fixture_covers_every_outcome(expected):
    """The recorded sessions take the paths their names promise."""
    events = {name: [event for event, _ in record["events"]]
              for name, record in expected.items()}
    assert "cold-start" in events["cold"]
    assert "warm-start" in events["warm"]
    assert "history-bootstrap" in events["history"]
    assert {"compressed", "verified"} <= set(events["compress"])
    assert "oneshot-predicted" in events["oneshot"]
    assert "deployment-blocked" in events["blocked"]
    assert expected["blocked"]["state_history"][-1] == "FAILED"
    assert expected["compress"]["verified"] is True


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as scratch:
        recorded = run_sessions(Path(scratch))
    FIXTURE.parent.mkdir(exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
