"""Golden observations of the simulator, replayed through both entry points.

``tests/data/dbsim_golden.json`` holds throughput, latency, the 63 metrics
or the crash message of a fixed set of stress tests: every named workload
on CDB-A, an HDD, a 4-core local-SSD and a 48-core NVM instance, through
the MySQL catalog and the MongoDB/Postgres adapters, with noise on and
off, over default, all-min, all-max, random, partial, repeated and
crash-region configs at several trials.  Each case is replayed once as a
serial ``evaluate`` loop and once as one ``evaluate_many`` batch.

Numbers compare at a relative tolerance of 1e-9, crash messages exactly:
numpy's SIMD transcendental loops may differ in the last bit between
CPUs, so bitwise equality of stored numbers would tie the file to one
host.  Same-host bitwise equality of the two entry points is checked by
``tests/test_vectorized_equivalence.py``.

Regenerate the fixture (only for an intended change of the model) with::

    PYTHONPATH=src python -m tests.test_dbsim_golden --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dbsim import (
    CDB_A,
    WORKLOADS,
    DatabaseCrashError,
    HardwareSpec,
    SimulatedDatabase,
    mongodb_registry,
    mysql_registry,
    postgres_registry,
)

FIXTURE = Path(__file__).parent / "data" / "dbsim_golden.json"
RTOL = 1e-9

HARDWARE = {
    spec.name: spec for spec in (
        CDB_A,
        HardwareSpec("hdd-8c", ram_gb=16, disk_gb=500, cores=8, medium="hdd"),
        HardwareSpec("local-ssd-4c", ram_gb=8, disk_gb=200, cores=4,
                     medium="local-ssd"),
        HardwareSpec("nvm-48c", ram_gb=128, disk_gb=1000, cores=48,
                     medium="nvm"),
    )
}
CATALOGS = ("mysql", "mongodb", "postgres")
NOISES = (0.015, 0.0)


def catalog(name: str):
    """``(registry, adapter)`` of one knob catalog."""
    if name == "mysql":
        return mysql_registry(), None
    return {"mongodb": mongodb_registry,
            "postgres": postgres_registry}[name]()


def native_name(adapter, canonical: str) -> str:
    """The catalog's own name for a canonical (MySQL) knob."""
    if adapter is None:
        return canonical
    return next(name for name, target in adapter.items()
                if target == canonical)


def build_config(registry, spec: dict) -> dict:
    """The config a fixture entry describes (see :func:`plan_case`)."""
    base = spec["base"]
    if base == "partial":
        return dict(spec["set"])
    config = registry.defaults()
    if base in ("min", "max"):
        for knob in registry.tunable:
            config[knob.name] = (knob.min_value if base == "min"
                                 else knob.max_value)
    elif base == "random":
        rng = np.random.default_rng(spec["seed"])
        for knob in registry.tunable:
            config[knob.name] = knob.from_unit(float(rng.random()))
    config.update(spec.get("set", {}))
    return config


def plan_case(index: int, registry, adapter) -> list:
    """The ``(config spec, trial)`` list of one case."""
    log_file = native_name(adapter, "innodb_log_file_size")
    log_files = native_name(adapter, "innodb_log_files_in_group")
    # A redo group that fits the smallest disk keeps a random config out
    # of the crash region; the largest one on the catalog lands in it.
    safe_log = {log_file: float(min(registry[log_file].max_value,
                                    256 * 1024 ** 2)),
                log_files: float(max(registry[log_files].min_value, 2))}
    crash_log = {log_file: float(registry[log_file].max_value),
                 log_files: float(registry[log_files].max_value)}
    pool = native_name(adapter, "innodb_buffer_pool_size")
    connections = native_name(adapter, "max_connections")
    rng = np.random.default_rng(1000 + index)
    partial = {pool: registry[pool].from_unit(float(rng.random())),
               connections: registry[connections].from_unit(
                   float(rng.random()))}
    partial.update(safe_log)
    seed = 100 * index
    safe = {"base": "random", "seed": seed + 1, "set": safe_log}
    return [
        ({"base": "default"}, 0),
        ({"base": "min"}, 1),
        ({"base": "max"}, 2),
        ({"base": "random", "seed": seed}, 3),
        (safe, 1),
        (safe, 4),
        ({"base": "max", "set": safe_log}, 0),
        ({"base": "partial", "set": partial}, 2),
        ({"base": "default", "set": crash_log}, 1),
        (safe, 1),  # a repeat: answered from the cache
    ]


def plan_cases() -> list:
    """Every workload on every instance; catalogs and noise rotate."""
    cases = []
    for w, workload in enumerate(sorted(WORKLOADS)):
        for h, hardware in enumerate(HARDWARE):
            index = w * len(HARDWARE) + h
            cases.append({
                "workload": workload, "hardware": hardware,
                "catalog": CATALOGS[index % len(CATALOGS)],
                "noise": NOISES[(index // len(CATALOGS)) % len(NOISES)],
                "seed": index,
            })
    return cases


def make_database(case: dict, registry, adapter) -> SimulatedDatabase:
    return SimulatedDatabase(HARDWARE[case["hardware"]],
                             WORKLOADS[case["workload"]], registry=registry,
                             adapter=adapter, noise=case["noise"],
                             seed=case["seed"])


def record(observation) -> dict:
    """Fixture form of one outcome: numbers to 13 significant digits."""
    if isinstance(observation, str):
        return {"crash": observation}
    return {"throughput": float(f"{observation.throughput:.13g}"),
            "latency": float(f"{observation.latency:.13g}"),
            "metrics": [float(f"{value:.13g}")
                        for value in observation.metrics.tolist()]}


def serial_outcomes(db, configs, trials) -> list:
    out = []
    for config, trial in zip(configs, trials):
        try:
            out.append(db.evaluate(config, trial=trial))
        except DatabaseCrashError as error:
            out.append(str(error))
    return out


def batch_outcomes(db, configs, trials) -> list:
    return [payload for _status, payload
            in db._evaluate_many_outcomes(configs, trials)]


def case_inputs(case: dict):
    registry, adapter = catalog(case["catalog"])
    plan = plan_case(case["seed"], registry, adapter)
    configs = [build_config(registry, spec) for spec, _ in plan]
    trials = [trial for _, trial in plan]
    return registry, adapter, plan, configs, trials


def record_fixture() -> dict:
    cases = []
    for case in plan_cases():
        registry, adapter, plan, configs, trials = case_inputs(case)
        db = make_database(case, registry, adapter)
        outcomes = serial_outcomes(db, configs, trials)
        cases.append(dict(case, evaluations=[
            dict(config=spec, trial=trial, **record(outcome))
            for (spec, trial), outcome in zip(plan, outcomes)]))
    return {"rtol": RTOL, "cases": cases}


@pytest.fixture(scope="module")
def golden() -> list:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


def assert_matches(expected: dict, outcome, where: str) -> None:
    if "crash" in expected:
        assert outcome == expected["crash"], where
        return
    assert not isinstance(outcome, str), f"{where}: crashed: {outcome}"
    np.testing.assert_allclose(outcome.throughput, expected["throughput"],
                               rtol=RTOL, atol=0, err_msg=where)
    np.testing.assert_allclose(outcome.latency, expected["latency"],
                               rtol=RTOL, atol=0, err_msg=where)
    np.testing.assert_allclose(outcome.metrics, expected["metrics"],
                               rtol=RTOL, atol=0, err_msg=where)


def test_fixture_covers_the_promised_grid(golden):
    cases = golden
    assert [{k: c[k] for k in cases[0] if k != "evaluations"}
            for c in cases] == plan_cases()
    assert {c["workload"] for c in cases} == set(WORKLOADS)
    assert {c["hardware"] for c in cases} == set(HARDWARE)
    assert {(c["catalog"], c["noise"]) for c in cases} == {
        (name, noise) for name in CATALOGS for noise in NOISES}
    evaluations = [e for c in cases for e in c["evaluations"]]
    assert {e["config"]["base"] for e in evaluations} == {
        "default", "min", "max", "random", "partial"}
    crashes = sum("crash" in e for e in evaluations)
    assert 0 < crashes < len(evaluations)


@pytest.mark.parametrize("entry", ["evaluate", "evaluate_many"])
@pytest.mark.parametrize("index", range(len(plan_cases())),
                         ids=[f"{c['workload']}-{c['hardware']}-"
                              f"{c['catalog']}-{c['noise']}"
                              for c in plan_cases()])
def test_replays_golden_observations(golden, index, entry):
    case = golden[index]
    registry, adapter, plan, configs, trials = case_inputs(case)
    assert [(spec, trial) for spec, trial in plan] == [
        (e["config"], e["trial"]) for e in case["evaluations"]]
    db = make_database(case, registry, adapter)
    replay = serial_outcomes if entry == "evaluate" else batch_outcomes
    outcomes = replay(db, configs, trials)
    for i, (expected, outcome) in enumerate(zip(case["evaluations"],
                                                outcomes)):
        assert_matches(expected, outcome, f"{entry} #{i}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(record_fixture(), handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
